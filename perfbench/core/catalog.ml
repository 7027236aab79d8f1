(* The metric catalog, as BENCHMARK.json declares it: name and unit.
   A --trace 0 run prints every end-to-end metric, a --trace 1 run every
   per-layer metric, in this order. *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ops_per_s", "1/s");
    ("call_gmean_ms", "ms") ]

let per_layer =
  [ ("fail_frac", "ratio"); ("sec.eq_s", "s"); ("sec.neq_s", "s");
    ("cosim.txn_per_s", "1/s"); ("cosim.cycles_per_s", "1/s");
    ("faultsim.mutants_per_s", "1/s"); ("serve.rps", "1/s");
    ("serve.hit_p50_ms", "ms"); ("serve.hit_tail_ms", "ms");
    ("serve.hit_tail_pct", "%"); ("serve.miss_p50_ms", "ms");
    ("serve.miss_tail_ms", "ms"); ("serve.miss_tail_pct", "%");
    ("sat.solve_s", "s"); ("sat.solves", "count"); ("sat.conflicts", "count");
    ("sat.propagations", "count"); ("sat.props_per_s", "1/s");
    ("aig.fraig_s", "s"); ("sec.queries", "count"); ("sec.unknowns", "count");
    ("sec.retry_ratio", "ratio"); ("sec.frame_s", "s"); ("sec.other_s", "s");
    ("sec.cex_resim_s", "s"); ("hwir.compile_s", "s"); ("hwir.run_us", "us");
    ("hwir.runs", "count"); ("rtl.compile_s", "s"); ("rtl.cycle_us", "us");
    ("rtl.cycles", "count"); ("rtl.evals", "count");
    ("cosim.txn_engine_s", "s"); ("cosim.cycles_per_txn", "cycles");
    ("cosim.matches", "count"); ("cosim.mismatches", "count");
    ("cosim.other_s", "s"); ("fault.enumerate_s", "s");
    ("fault.mutants", "count"); ("fault.detected", "count");
    ("fault.survived", "count"); ("par.job_overhead_us", "us");
    ("par.steals", "count"); ("par.retries", "count");
    ("par.telemetry_shipped", "count"); ("journal.append_us", "us");
    ("journal.appends", "count"); ("journal.replay_s", "s");
    ("serve.parse_us", "us"); ("serve.lookup_us", "us");
    ("serve.store_add_us", "us"); ("serve.server_ms", "ms");
    ("serve.wire_ms", "ms"); ("serve.hit_ratio", "ratio");
    ("serve.coalesced", "count"); ("serve.solves", "count");
    ("obs.trace_overhead_pct", "%"); ("unattributed_s", "s") ]
