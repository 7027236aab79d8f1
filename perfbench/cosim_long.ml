(* cosim_long: seeded Flow.simulate batches on gcd, fir, conv, uart and
   chain with the default compiled engines, plus a memsys request
   stream through Txn_engine on the cached RTL with the tagged
   out-of-order scoreboard.  RTL, kernel, HWIR and cosim carry the work
   and no SAT runs, so this is the no-change check for every SEC
   change.  Half of the memsys stream targets a 16-line hot set and half
   spans the 256-word space, against a cache that starts empty, so the
   working set varies the simulated cycles per transaction. *)
open Common
module Flow = Dfv_core.Flow
module Pair = Dfv_core.Pair
module Spec = Dfv_sec.Spec
module Interp = Dfv_hwir.Interp
module Exec = Dfv_hwir.Exec
module Sim = Dfv_rtl.Sim
module Bitvec = Dfv_bitvec.Bitvec
module Memsys = Dfv_designs.Memsys
module Txn_engine = Dfv_cosim.Txn_engine
module Scoreboard = Dfv_cosim.Scoreboard

(* Vectors per Flow.simulate batch, sized so each design takes a
   comparable share of a pass. *)
let designs =
  [ ("gcd", 3000); ("fir", 3000); ("conv", 2000); ("uart", 800); ("chain", 300) ]

let memsys_batches = 192
let memsys_batch = 64

type env = {
  ctx : ctx;
  pairs : (string * Pair.t * int) list;
  mem : Memsys.config;
  mem_rtl : Dfv_rtl.Netlist.elaborated;
  compile_hwir_s : float;
  compile_rtl_s : float;
  execs : (string * Exec.t) list;
}

let setup ctx =
  let pairs = List.map (fun (d, v) -> (d, Pairs.make d "none", v)) designs in
  let mem = Memsys.default_config in
  let mem_rtl = Memsys.rtl_cached mem in
  let execs, compile_hwir_s =
    timed (fun () -> List.map (fun (d, p, _) -> (d, Exec.create p.Pair.slm)) pairs)
  in
  let (), compile_rtl_s =
    timed (fun () ->
        List.iter (fun (_, p, _) -> ignore (Sim.create p.Pair.rtl)) pairs;
        ignore (Sim.create mem_rtl))
  in
  { ctx; pairs; mem; mem_rtl; compile_hwir_s; compile_rtl_s; execs }

let teardown _ = ()
let peak_rss_mb _ = Common.peak_rss_mb "self"
let before_traced _ = ()
let traced_passes = 2

let memsys_requests st =
  List.init memsys_batch (fun i ->
      let addr =
        if Random.State.bool st then Random.State.int st 16
        else Random.State.int st 256
      in
      let op =
        if Random.State.int st 10 < 3 then
          Memsys.Write (addr, Random.State.int st 256)
        else Memsys.Read addr
      in
      { Memsys.req_tag = i mod 16; op })

(* One memsys batch: issue through the engine, score against the
   zero-delay SLM; [None] when the scoreboard rejects the completions. *)
let memsys_batch_run env requests =
  let c = env.mem in
  let (completions, cycles), engine_s =
    timed (fun () ->
        span "cosim.txn_engine" (fun () ->
            Txn_engine.run ~rtl:env.mem_rtl ~iface:(Memsys.iface c ~ready:true)
              ~requests:(Memsys.to_engine_requests c requests) ()))
  in
  let sb = Scoreboard.create Scoreboard.Out_of_order in
  List.iteri
    (fun i (tag, data) ->
      Scoreboard.expect sb
        ~tag:(Bitvec.create ~width:c.Memsys.tag_width tag)
        ~cycle:i
        (Bitvec.create ~width:c.Memsys.data_width data))
    (Memsys.Slm.execute_all (Memsys.Slm.create c) requests);
  List.iter
    (fun (cp : Txn_engine.completion) ->
      Scoreboard.observe sb ~tag:cp.Txn_engine.c_tag
        ~cycle:cp.Txn_engine.c_cycle cp.Txn_engine.c_data)
    completions;
  (Scoreboard.ok (Scoreboard.report sb), cycles, engine_s)

let pass env k =
  let st = rng env.ctx (2000 + k) in
  let failed = ref 0 and calls = ref [] and ops = ref 0 in
  let sim_s = ref 0. and vectors = ref 0 in
  List.iter
    (fun (d, pair, n) ->
      let seed = Random.State.bits st in
      let r, t0, dt =
        timed_at (fun () ->
            span "cosim.simulate" (fun () -> Flow.simulate ~seed ~vectors:n pair))
      in
      (match r with
      | Ok (Flow.Sim_clean { vectors = v }) when v = n -> ()
      | Ok _ | Error _ -> failed := !failed + n);
      ops := !ops + n;
      vectors := !vectors + n;
      sim_s := !sim_s +. dt;
      calls := ("sim:" ^ d, t0, dt) :: !calls)
    env.pairs;
  let txn_s = ref 0. and engine_s = ref 0. and cycles = ref 0 in
  for _ = 1 to memsys_batches do
    let requests = memsys_requests st in
    let (ok, cyc, es), t0, dt = timed_at (fun () -> memsys_batch_run env requests) in
    if not ok then failed := !failed + memsys_batch;
    ops := !ops + memsys_batch;
    cycles := !cycles + cyc;
    txn_s := !txn_s +. dt;
    engine_s := !engine_s +. es;
    calls := ("txn", t0, dt) :: !calls
  done;
  ( {
      ops = !ops;
      failed = !failed;
      calls = !calls;
      sums =
        [ ("cosim.simulate_s", !sim_s); ("cosim.vectors", float_of_int !vectors);
          ("cosim.txn_engine_s", !engine_s);
          ("cosim.memsys_cycles", float_of_int !cycles);
          ("cosim.memsys_txns", float_of_int (memsys_batches * memsys_batch)) ];
    },
    fun () -> 0 )

(* Random entry arguments the way Flow.simulate draws them, filtered to
   those the SLM runs on without a runtime error. *)
let random_args st (pair : Pair.t) =
  let params, _ = Dfv_hwir.Typecheck.entry_signature pair.Pair.slm in
  List.map
    (fun (n, ty) ->
      ( n,
        match ty with
        | Dfv_hwir.Ast.Tint { width; _ } -> Interp.Vint (Bitvec.random st ~width)
        | Dfv_hwir.Ast.Tarray (Dfv_hwir.Ast.Tint { width; _ }, len) ->
          Interp.Varr (Array.init len (fun _ -> Bitvec.random st ~width))
        | _ -> invalid_arg "random_args: nested array" ))
    params

let source params = function
  | Spec.Const bv -> bv
  | Spec.Param n -> (
    match List.assoc n params with Interp.Vint bv -> bv | Interp.Varr _ -> assert false)
  | Spec.Param_elem (n, i) -> (
    match List.assoc n params with Interp.Varr a -> a.(i) | Interp.Vint _ -> assert false)
  | Spec.Param_bits { name; hi; lo } -> (
    match List.assoc name params with
    | Interp.Vint bv -> Bitvec.select bv ~hi ~lo
    | Interp.Varr _ -> assert false)

let stimulus (spec : Spec.t) params =
  Array.init spec.Spec.rtl_cycles (fun t ->
      List.map
        (fun (port, drive) ->
          ( port,
            source params
              (match drive with Spec.Hold bv -> Spec.Const bv | Spec.At f -> f t) ))
        spec.Spec.drives)

(* Per-call costs of the engines Flow.simulate drives, on replayed
   arguments and stimulus: microseconds per Exec.run and per Sim.cycle,
   and seconds per Sim.create (Flow.simulate creates one simulator per
   transaction). *)
let probe_engines env =
  let st = rng env.ctx 2999 in
  let runs = ref 0 and run_s = ref 0. and cyc = ref 0 and cyc_s = ref 0. in
  let creates = ref 0 and create_s = ref 0. in
  List.iter
    (fun (d, (pair : Pair.t), n) ->
      let ex = List.assoc d env.execs in
      let args = List.init n (fun _ -> random_args st pair) in
      let ok =
        List.filter
          (fun a ->
            match Exec.run ex (List.map snd a) with
            | _ -> true
            | exception Interp.Runtime_error _ -> false)
          args
      in
      let (), dt =
        timed (fun () -> List.iter (fun a -> ignore (Exec.run ex (List.map snd a))) ok)
      in
      runs := !runs + List.length ok;
      run_s := !run_s +. dt;
      (* One simulator per transaction, created, run and dropped, as
         Flow.simulate does. *)
      List.iter
        (fun a ->
          let s = stimulus pair.Pair.spec a in
          let sim, dt = timed (fun () -> Sim.create pair.Pair.rtl) in
          create_s := !create_s +. dt;
          let (), dt = timed (fun () -> Array.iter (fun i -> ignore (Sim.cycle sim i)) s) in
          cyc_s := !cyc_s +. dt;
          cyc := !cyc + Array.length s)
        ok;
      creates := !creates + List.length ok)
    env.pairs;
  ( 1e6 *. !run_s /. float_of_int !runs,
    1e6 *. !cyc_s /. float_of_int !cyc,
    !create_s /. float_of_int !creates )

let layers env ~passes ~calls:_ ~deltas ~wall =
  let s k = List.fold_left (fun acc p -> acc +. get p.sums k) 0. passes in
  let ops = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  let run_us, cycle_us, create_s = probe_engines env in
  let sim_cycles = get deltas "rtl.sim.cycles" -. s "cosim.memsys_cycles" in
  let engines_s =
    (get deltas "hwir.compile.runs" *. run_us /. 1e6)
    +. (sim_cycles *. cycle_us /. 1e6)
    +. (s "cosim.vectors" *. create_s)
  in
  [ ("cosim.txn_per_s", float_of_int ops /. wall);
    ("cosim.cycles_per_s", get deltas "rtl.sim.cycles" /. wall);
    ("cosim.txn_engine_s", s "cosim.txn_engine_s");
    ("cosim.cycles_per_txn", s "cosim.memsys_cycles" /. s "cosim.memsys_txns");
    ("cosim.other_s", s "cosim.simulate_s" -. engines_s);
    ("hwir.compile_s", env.compile_hwir_s); ("hwir.run_us", run_us);
    ("rtl.compile_s", env.compile_rtl_s); ("rtl.cycle_us", cycle_us) ]
