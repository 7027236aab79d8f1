(* Tests for the RTL IR: elaboration, simulation, hierarchy, memories,
   lint, and simulator-vs-synthesis consistency. *)

open Dfv_bitvec
open Dfv_rtl
open Dfv_aig

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let bv w x = Bitvec.create ~width:w x

let out_int outputs name =
  Bitvec.to_int (List.assoc name outputs)

(* --- basic designs ----------------------------------------------------- *)

(* An 8-bit free-running counter. *)
let counter () =
  let open Expr in
  {
    (Netlist.empty "counter") with
    Netlist.regs =
      [ Netlist.reg ~name:"count" ~width:8 (sig_ "count" +: const ~width:8 1) ];
    outputs = [ ("q", sig_ "count") ];
  }

(* An accumulator with enable and clear. *)
let accumulator () =
  let open Expr in
  {
    (Netlist.empty "acc") with
    Netlist.inputs =
      [ { Netlist.port_name = "en"; port_width = 1 };
        { Netlist.port_name = "clr"; port_width = 1 };
        { Netlist.port_name = "d"; port_width = 16 } ];
    regs =
      [ Netlist.reg ~enable:(sig_ "en" |: sig_ "clr") ~name:"sum" ~width:16
          (mux (sig_ "clr") (const ~width:16 0) (sig_ "sum" +: sig_ "d")) ];
    outputs = [ ("sum", sig_ "sum") ];
  }

let test_counter () =
  let d = Netlist.elaborate (counter ()) in
  let sim = Sim.create d in
  for i = 0 to 300 do
    let outs = Sim.cycle sim [] in
    check_int (Printf.sprintf "cycle %d" i) (i land 0xff) (out_int outs "q")
  done;
  Sim.reset sim;
  check_int "after reset" 0 (out_int (Sim.cycle sim []) "q")

let test_accumulator () =
  let d = Netlist.elaborate (accumulator ()) in
  let sim = Sim.create d in
  let step en clr dv =
    out_int
      (Sim.cycle sim
         [ ("en", bv 1 (if en then 1 else 0));
           ("clr", bv 1 (if clr then 1 else 0));
           ("d", bv 16 dv) ])
      "sum"
  in
  check_int "initial" 0 (step true false 5);
  check_int "accumulated 5" 5 (step true false 7);
  check_int "accumulated 12" 12 (step false false 100);
  check_int "enable off holds" 12 (step true false 1);
  check_int "now 13" 13 (step false true 0);
  check_int "clear wins" 0 (step true false 0)

(* --- Fig. 1 as RTL ------------------------------------------------------ *)

(* The paper's Fig. 1 netlists, verbatim: two combinational modules that
   differ only in association order. *)
let fig1_module ~first =
  let open Expr in
  let tmp =
    if first then sig_ "a" +: sig_ "b" (* tmp = a + b *)
    else sig_ "b" +: sig_ "c" (* tmp = b + c *)
  in
  let last = if first then sig_ "c" else sig_ "a" in
  {
    (Netlist.empty (if first then "fig1_left" else "fig1_right")) with
    Netlist.inputs =
      [ { Netlist.port_name = "a"; port_width = 8 };
        { Netlist.port_name = "b"; port_width = 8 };
        { Netlist.port_name = "c"; port_width = 8 } ];
    wires = [ ("tmp", tmp) ];
    outputs = [ ("out", sext (sig_ "tmp") 9 +: sext last 9) ];
  }

let test_fig1_rtl_divergence () =
  let dl = Netlist.elaborate (fig1_module ~first:true) in
  let dr = Netlist.elaborate (fig1_module ~first:false) in
  let run d a b c =
    let sim = Sim.create d in
    Bitvec.to_signed_int
      (List.assoc "out"
         (Sim.cycle sim [ ("a", bv 8 a); ("b", bv 8 b); ("c", bv 8 c) ]))
  in
  (* The paper's overflow witness. *)
  check_int "left (a+b)+c" (-129) (run dl 64 64 (-1));
  check_int "right (b+c)+a" 127 (run dr 64 64 (-1));
  (* And a benign input where both agree. *)
  check_int "agree left" 3 (run dl 1 1 1);
  check_int "agree right" 3 (run dr 1 1 1)

(* --- hierarchy ----------------------------------------------------------- *)

let adder_module () =
  let open Expr in
  {
    (Netlist.empty "adder") with
    Netlist.inputs =
      [ { Netlist.port_name = "x"; port_width = 8 };
        { Netlist.port_name = "y"; port_width = 8 } ];
    outputs = [ ("s", sig_ "x" +: sig_ "y") ];
  }

let test_hierarchy () =
  let open Expr in
  (* Two chained adder instances: out = (a + b) + c. *)
  let top =
    {
      (Netlist.empty "top") with
      Netlist.inputs =
        [ { Netlist.port_name = "a"; port_width = 8 };
          { Netlist.port_name = "b"; port_width = 8 };
          { Netlist.port_name = "c"; port_width = 8 } ];
      instances =
        [ { Netlist.inst_name = "u0";
            inst_module = adder_module ();
            connections = [ ("x", sig_ "a"); ("y", sig_ "b") ] };
          { Netlist.inst_name = "u1";
            inst_module = adder_module ();
            connections = [ ("x", sig_ "u0.s"); ("y", sig_ "c") ] } ];
      outputs = [ ("out", sig_ "u1.s") ];
    }
  in
  let d = Netlist.elaborate top in
  let sim = Sim.create d in
  let outs =
    Sim.cycle sim [ ("a", bv 8 10); ("b", bv 8 20); ("c", bv 8 30) ]
  in
  check_int "chained adders" 60 (out_int outs "out");
  (* Internal signals are visible under hierarchical names. *)
  check_int "u0.s peek" 30 (Bitvec.to_int (Sim.peek sim "u0.s"))

let test_hierarchy_errors () =
  let open Expr in
  let missing =
    {
      (Netlist.empty "top") with
      Netlist.instances =
        [ { Netlist.inst_name = "u0";
            inst_module = adder_module ();
            connections = [ ("x", const ~width:8 0) ] } ];
    }
  in
  check_bool "missing connection rejected" true
    (match Netlist.elaborate missing with
    | exception Netlist.Elaboration_error _ -> true
    | _ -> false);
  let extra =
    {
      (Netlist.empty "top") with
      Netlist.instances =
        [ { Netlist.inst_name = "u0";
            inst_module = adder_module ();
            connections =
              [ ("x", const ~width:8 0); ("y", const ~width:8 0);
                ("zz", const ~width:8 0) ] } ];
    }
  in
  check_bool "extra connection rejected" true
    (match Netlist.elaborate extra with
    | exception Netlist.Elaboration_error _ -> true
    | _ -> false)

(* --- memories ------------------------------------------------------------ *)

let regfile () =
  let open Expr in
  {
    (Netlist.empty "regfile") with
    Netlist.inputs =
      [ { Netlist.port_name = "we"; port_width = 1 };
        { Netlist.port_name = "waddr"; port_width = 4 };
        { Netlist.port_name = "wdata"; port_width = 8 };
        { Netlist.port_name = "raddr"; port_width = 4 } ];
    mems =
      [ { Netlist.mem_name = "rf";
          word_width = 8;
          mem_size = 16;
          writes =
            [ { Netlist.wr_enable = sig_ "we";
                wr_addr = sig_ "waddr";
                wr_data = sig_ "wdata" } ];
          mem_init = None } ];
    outputs = [ ("rdata", mem_read "rf" (sig_ "raddr")) ];
  }

let test_memory () =
  let d = Netlist.elaborate (regfile ()) in
  let sim = Sim.create d in
  let step we waddr wdata raddr =
    out_int
      (Sim.cycle sim
         [ ("we", bv 1 (if we then 1 else 0));
           ("waddr", bv 4 waddr);
           ("wdata", bv 8 wdata);
           ("raddr", bv 4 raddr) ])
      "rdata"
  in
  check_int "initially zero" 0 (step true 3 42 3);
  (* Write committed at the clock edge: visible next cycle (read is
     asynchronous but the write is synchronous). *)
  check_int "write visible" 42 (step false 0 0 3);
  check_int "other word still zero" 0 (step true 3 99 5);
  check_int "overwrite" 99 (step false 0 0 3);
  check_int "peek_mem" 99 (Bitvec.to_int (Sim.peek_mem sim "rf" 3))

(* --- elaboration errors ---------------------------------------------------- *)

let test_elaboration_errors () =
  let open Expr in
  let expect_error name m =
    match Netlist.elaborate m with
    | exception Netlist.Elaboration_error _ -> ()
    | _ -> Alcotest.failf "%s: expected elaboration error" name
  in
  expect_error "duplicate wire"
    { (Netlist.empty "m") with
      Netlist.wires = [ ("w", const ~width:1 0); ("w", const ~width:1 1) ] };
  expect_error "unknown signal"
    { (Netlist.empty "m") with Netlist.outputs = [ ("o", sig_ "nope") ] };
  expect_error "width mismatch"
    { (Netlist.empty "m") with
      Netlist.wires = [ ("w", const ~width:4 1 +: const ~width:5 1) ];
      outputs = [ ("o", sig_ "w") ] };
  expect_error "comb cycle"
    { (Netlist.empty "m") with
      Netlist.wires =
        [ ("x", sig_ "y" +: const ~width:4 1); ("y", sig_ "x") ];
      outputs = [ ("o", sig_ "x") ] };
  expect_error "bad mux select"
    { (Netlist.empty "m") with
      Netlist.wires =
        [ ("w", mux (const ~width:2 1) (const ~width:4 0) (const ~width:4 1)) ];
      outputs = [ ("o", sig_ "w") ] };
  expect_error "reg next width"
    { (Netlist.empty "m") with
      Netlist.regs = [ Netlist.reg ~name:"r" ~width:8 (const ~width:4 0) ] };
  expect_error "mem init size"
    { (Netlist.empty "m") with
      Netlist.mems =
        [ { Netlist.mem_name = "m0";
            word_width = 8;
            mem_size = 4;
            writes = [];
            mem_init = Some (Array.make 3 (Bitvec.zero 8)) } ] }

(* --- lint ------------------------------------------------------------------ *)

let test_lint () =
  let open Expr in
  let m =
    {
      (Netlist.empty "linty") with
      Netlist.inputs =
        [ { Netlist.port_name = "used"; port_width = 4 };
          { Netlist.port_name = "dangling"; port_width = 4 } ];
      wires =
        [ ("w", sig_ "used" +: const ~width:4 1);
          ("degenerate",
           mux (bit (sig_ "used") 0) (const ~width:4 3) (const ~width:4 3)) ];
      regs = [ Netlist.reg ~name:"silent" ~width:2 (const ~width:2 0) ];
      outputs = [ ("o", sig_ "w"); ("k", const ~width:3 5) ];
      mems =
        [ { Netlist.mem_name = "dead";
            word_width = 4;
            mem_size = 2;
            writes = [];
            mem_init = None } ];
    }
  in
  let issues = Lint.check (Netlist.elaborate m) in
  let has p = List.exists p issues in
  check_bool "unused input" true
    (has (function Lint.Unused_signal "dangling" -> true | _ -> false));
  check_bool "unread register" true
    (has (function Lint.Unread_register "silent" -> true | _ -> false));
  check_bool "dead memory" true
    (has (function Lint.Memory_never_read "dead" -> true | _ -> false));
  check_bool "never written memory" true
    (has (function Lint.Memory_never_written "dead" -> true | _ -> false));
  check_bool "constant output" true
    (has (function Lint.Constant_output "k" -> true | _ -> false));
  check_bool "degenerate mux" true
    (has (function Lint.Degenerate_mux "degenerate" -> true | _ -> false));
  check_bool "no false positive on w" false
    (has (function Lint.Unused_signal "w" -> true | _ -> false))

(* --- simulator vs AIG synthesis -------------------------------------------- *)

(* Build the one-cycle transition function as an AIG whose primary inputs
   are the design inputs followed by the state elements, then co-simulate
   it against the interpreter for [cycles] random cycles. *)
let aig_stepper design =
  let g = Aig.create () in
  let input_words =
    List.map
      (fun p -> (p.Netlist.port_name, Word.inputs g p.Netlist.port_width))
      design.Netlist.e_inputs
  in
  let state_elts = Synth.state_elements design in
  let state_words =
    List.map (fun (id, w, _) -> (id, Word.inputs g w)) state_elts
  in
  let outputs, next =
    Synth.build design ~g
      ~inputs:(fun n -> List.assoc n input_words)
      ~state:(fun id -> List.assoc id state_words)
  in
  fun in_vals state_vals ->
    (* Primary input order = allocation order: inputs then state. *)
    let bits =
      Array.concat
        (List.map
           (fun p -> Bitvec.to_bits (List.assoc p.Netlist.port_name in_vals))
           design.Netlist.e_inputs
        @ List.map Bitvec.to_bits state_vals)
    in
    let values = Aig.simulate g bits in
    let outs = List.map (fun (n, w) -> (n, Word.to_bitvec g values w)) outputs in
    let nexts = List.map (fun (_, w) -> Word.to_bitvec g values w) next in
    (outs, nexts)

let check_sim_vs_synth ~name ~cycles design gen_inputs =
  let d = Netlist.elaborate design in
  let sim = Sim.create d in
  let step = aig_stepper d in
  let state_elts = Synth.state_elements d in
  let state = ref (List.map (fun (_, _, init) -> init) state_elts) in
  let st = Random.State.make [| Hashtbl.hash name |] in
  for cycle = 0 to cycles - 1 do
    let ins = gen_inputs st in
    let sim_outs = Sim.cycle sim ins in
    let aig_outs, next_state = step ins !state in
    List.iter
      (fun (n, v) ->
        let v' = List.assoc n aig_outs in
        if not (Bitvec.equal v v') then
          Alcotest.failf "%s cycle %d output %s: sim %s, aig %s" name cycle n
            (Bitvec.to_string v) (Bitvec.to_string v'))
      sim_outs;
    state := next_state
  done

let test_synth_counter () =
  check_sim_vs_synth ~name:"counter" ~cycles:50 (counter ()) (fun _ -> [])

let test_synth_accumulator () =
  check_sim_vs_synth ~name:"acc" ~cycles:100 (accumulator ()) (fun st ->
      [ ("en", Bitvec.random st ~width:1);
        ("clr", Bitvec.random st ~width:1);
        ("d", Bitvec.random st ~width:16) ])

let test_synth_regfile () =
  check_sim_vs_synth ~name:"regfile" ~cycles:200 (regfile ()) (fun st ->
      [ ("we", Bitvec.random st ~width:1);
        ("waddr", Bitvec.random st ~width:4);
        ("wdata", Bitvec.random st ~width:8);
        ("raddr", Bitvec.random st ~width:4) ])

let test_synth_fig1 () =
  check_sim_vs_synth ~name:"fig1" ~cycles:200 (fig1_module ~first:true)
    (fun st ->
      [ ("a", Bitvec.random st ~width:8);
        ("b", Bitvec.random st ~width:8);
        ("c", Bitvec.random st ~width:8) ])

(* A design exercising the trickier operators end to end. *)
let ops_soup () =
  let open Expr in
  {
    (Netlist.empty "soup") with
    Netlist.inputs =
      [ { Netlist.port_name = "a"; port_width = 8 };
        { Netlist.port_name = "b"; port_width = 8 } ];
    wires =
      [ ("shifted", sig_ "a" <<: slice (sig_ "b") ~hi:3 ~lo:0);
        ("cmp",
         concat
           [ sig_ "a" <+ sig_ "b"; sig_ "a" <: sig_ "b"; sig_ "a" ==: sig_ "b";
             sig_ "a" <=+ sig_ "b" ]);
        ("arith", (sig_ "a" *: sig_ "b") -: (sig_ "a" ^: sig_ "b"));
        ("red", concat [ red_and (sig_ "a"); red_or (sig_ "b"); red_xor (sig_ "a") ]) ];
    regs =
      [ Netlist.reg ~name:"hist" ~width:8 (sig_ "shifted" +: sig_ "arith") ];
    outputs =
      [ ("o1", sig_ "shifted");
        ("o2", zext (sig_ "cmp") 8 +: sig_ "hist");
        ("o3", sig_ "red");
        ("o4", sig_ "a" >>+ slice (sig_ "b") ~hi:2 ~lo:0) ];
  }

let test_synth_ops_soup () =
  check_sim_vs_synth ~name:"soup" ~cycles:300 (ops_soup ()) (fun st ->
      [ ("a", Bitvec.random st ~width:8); ("b", Bitvec.random st ~width:8) ])

(* --- VCD -------------------------------------------------------------------- *)

let test_vcd () =
  let d = Netlist.elaborate (accumulator ()) in
  let sim = Sim.create d in
  let buf = Buffer.create 256 in
  let vcd = Vcd.create buf d sim in
  for i = 0 to 3 do
    ignore
      (Sim.cycle sim
         [ ("en", bv 1 1); ("clr", bv 1 0); ("d", bv 16 (i + 1)) ]);
    Vcd.sample vcd
  done;
  let text = Buffer.contents buf in
  check_bool "has header" true
    (String.length text > 0
    && String.sub text 0 5 = "$date");
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "declares sum" true (contains "$var wire 16");
  check_bool "has timesteps" true (contains "#3");
  check_bool "binary values" true (contains "b")

let test_vcd_clamps_before_first_cycle () =
  (* Sampling before the first clock edge used to emit "#-1" (the
     cycles_run - 1 convention underflows); the timestamp must clamp
     to 0 and stay aligned afterwards. *)
  let d = Netlist.elaborate (accumulator ()) in
  let sim = Sim.create d in
  let buf = Buffer.create 256 in
  let vcd = Vcd.create buf d sim in
  Vcd.sample vcd;
  ignore (Sim.cycle sim [ ("en", bv 1 1); ("clr", bv 1 0); ("d", bv 16 5) ]);
  Vcd.sample vcd;
  let text = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "no negative timestamp" false (contains "#-");
  check_bool "pre-cycle sample lands at #0" true (contains "#0")

(* Synthesis walks each shared subtree once.  [e := e +: e] forty times
   is a tree of 2^40 nodes but a DAG of forty, so a tree walk would never
   finish.  Elaboration walks the tree too, so the elaborated record is
   built by hand.  Doubling is a left shift by one bit: level 3 is
   [a << 3], and from level 8 on every bit is constant zero. *)
let test_synth_shared_subtrees () =
  let open Expr in
  let rec nest n e = if n = 0 then e else nest (n - 1) (e +: e) in
  let d =
    {
      Netlist.e_name = "doubling";
      e_inputs = [ { Netlist.port_name = "a"; port_width = 8 } ];
      e_outputs = [ ("o3", nest 3 (sig_ "a")); ("o40", sig_ "w") ];
      e_wires = [ ("w", nest 40 (sig_ "a")) ];
      e_regs = [];
      e_mems = [];
      e_signal_width = (fun _ -> 8);
    }
  in
  let g = Aig.create () in
  let a = Word.inputs g 8 in
  let t0 = Sys.time () in
  let outputs, _ =
    Synth.build d ~g ~inputs:(fun _ -> a) ~state:(fun _ -> assert false)
  in
  check_bool "well under a second" true (Sys.time () -. t0 < 1.0);
  let lits name = Array.to_list (List.assoc name outputs) in
  let zeros n = List.init n (fun _ -> Aig.false_) in
  check_bool "level 3 is a << 3" true
    (lits "o3" = zeros 3 @ Array.to_list (Array.sub a 0 5));
  check_bool "level 40 is zero" true (lits "o40" = zeros 8)

let suite =
  [ Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "accumulator" `Quick test_accumulator;
    Alcotest.test_case "Fig.1 RTL divergence" `Quick test_fig1_rtl_divergence;
    Alcotest.test_case "hierarchy" `Quick test_hierarchy;
    Alcotest.test_case "hierarchy errors" `Quick test_hierarchy_errors;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "elaboration errors" `Quick test_elaboration_errors;
    Alcotest.test_case "lint" `Quick test_lint;
    Alcotest.test_case "synth=sim: counter" `Quick test_synth_counter;
    Alcotest.test_case "synth=sim: accumulator" `Quick test_synth_accumulator;
    Alcotest.test_case "synth=sim: regfile" `Quick test_synth_regfile;
    Alcotest.test_case "synth=sim: fig1" `Quick test_synth_fig1;
    Alcotest.test_case "synth=sim: ops soup" `Quick test_synth_ops_soup;
    Alcotest.test_case "synth walks shared subtrees once" `Quick
      test_synth_shared_subtrees;
    Alcotest.test_case "vcd" `Quick test_vcd;
    Alcotest.test_case "vcd clamps pre-cycle sample" `Quick
      test_vcd_clamps_before_first_cycle ]
