let () =
  Dfv_par.Pool.serve_worker ();
  Alcotest.run "dfv"
    [ ("bitvec", Test_bitvec.suite);
      ("cint", Test_cint.suite);
      ("sat", Test_sat.suite);
      ("aig", Test_aig.suite);
      ("sweep", Test_sweep.suite);
      ("aiger", Test_aiger.suite);
      ("rtl", Test_rtl.suite);
      ("sim_engines", Test_sim_engines.suite);
      ("hwir_engines", Test_hwir_engines.suite);
      ("verilog", Test_verilog.suite);
      ("slm", Test_slm.suite);
      ("tlm", Test_tlm.suite);
      ("hwir", Test_hwir.suite);
      ("sec", Test_sec.suite);
      ("session", Test_session.suite);
      ("cosim", Test_cosim.suite);
      ("softfloat", Test_softfloat.suite);
      ("designs", Test_designs.suite);
      ("core", Test_core.suite);
      ("fault", Test_fault.suite);
      ("fault-domains", Test_fault.domains_suite);
      ("par", Test_par.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("properties", Test_properties.suite);
      ("behsyn", Test_behsyn.suite) ]
