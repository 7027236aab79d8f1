module Bitvec = Dfv_bitvec.Bitvec
module Aig = Dfv_aig.Aig
module Word = Dfv_aig.Word
open Netlist

type state_id = Reg of string | Mem_word of string * int

let compare_state_id = compare

let state_id_name = function
  | Reg n -> n
  | Mem_word (m, i) -> Printf.sprintf "%s[%d]" m i

let state_elements design =
  let regs =
    List.map (fun r -> (Reg r.reg_name, r.reg_width, r.init)) design.e_regs
  in
  let mem_words =
    List.concat_map
      (fun m ->
        List.init m.mem_size (fun i ->
            let init =
              match m.mem_init with
              | Some a -> a.(i)
              | None -> Bitvec.zero m.word_width
            in
            (Mem_word (m.mem_name, i), m.word_width, init)))
      design.e_mems
  in
  regs @ mem_words

let build design ~g ~inputs ~state =
  let values : (string, Word.w) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let w = inputs p.port_name in
      if Array.length w <> p.port_width then
        invalid_arg
          (Printf.sprintf "Synth.build: input %s word has width %d, port is %d"
             p.port_name (Array.length w) p.port_width);
      Hashtbl.replace values p.port_name w)
    design.e_inputs;
  List.iter
    (fun r ->
      let w = state (Reg r.reg_name) in
      if Array.length w <> r.reg_width then
        invalid_arg
          (Printf.sprintf "Synth.build: state %s word has width %d, reg is %d"
             r.reg_name (Array.length w) r.reg_width);
      Hashtbl.replace values r.reg_name w)
    design.e_regs;
  let mem_words : (string, Word.w array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun m ->
      mem_words |> fun tbl ->
      Hashtbl.replace tbl m.mem_name
        (Array.init m.mem_size (fun i -> state (Mem_word (m.mem_name, i)))))
    design.e_mems;
  (* Every non-leaf subtree is synthesized once per call, so the cost is
     linear in the expression DAG rather than the tree (fir's saturating
     adds nest their operand three deep).  Structural hashing would have
     returned the same literals for a repeat walk, and evaluation stays
     depth-first in first-occurrence order, so the graph is node-for-node
     the one the repeat walks built. *)
  let memo : (Expr.t, Word.w) Hashtbl.t = Hashtbl.create 256 in
  let rec ev e : Word.w =
    match e with
    | Expr.Const bv -> Word.const bv
    | Expr.Signal n -> Hashtbl.find values n
    | _ -> (
      match Hashtbl.find_opt memo e with
      | Some w -> w
      | None ->
        let w = ev_node e in
        Hashtbl.add memo e w;
        w)
  and ev_node e : Word.w =
    match e with
    | Expr.Const _ | Expr.Signal _ -> ev e
    | Expr.Unop (op, a) ->
      let va = ev a in
      (match op with
      | Expr.Not -> Word.lognot va
      | Expr.Neg -> Word.neg g va
      | Expr.Red_and -> [| Word.reduce_and g va |]
      | Expr.Red_or -> [| Word.reduce_or g va |]
      | Expr.Red_xor -> [| Word.reduce_xor g va |])
    | Expr.Binop (op, a, b) ->
      let va = ev a and vb = ev b in
      (match op with
      | Expr.Add -> Word.add g va vb
      | Expr.Sub -> Word.sub g va vb
      | Expr.Mul -> Word.mul g va vb
      | Expr.Udiv -> Word.udiv g va vb
      | Expr.Urem -> Word.urem g va vb
      | Expr.Sdiv -> Word.sdiv g va vb
      | Expr.Srem -> Word.srem g va vb
      | Expr.And -> Word.logand g va vb
      | Expr.Or -> Word.logor g va vb
      | Expr.Xor -> Word.logxor g va vb
      | Expr.Shl -> Word.shift_left_var g va vb
      | Expr.Lshr -> Word.shift_right_logical_var g va vb
      | Expr.Ashr -> Word.shift_right_arith_var g va vb
      | Expr.Eq -> [| Word.eq g va vb |]
      | Expr.Ne -> [| Word.ne g va vb |]
      | Expr.Ult -> [| Word.ult g va vb |]
      | Expr.Ule -> [| Word.ule g va vb |]
      | Expr.Slt -> [| Word.slt g va vb |]
      | Expr.Sle -> [| Word.sle g va vb |])
    | Expr.Mux (s, a, b) ->
      let vs = ev s in
      Word.mux g ~sel:vs.(0) (ev a) (ev b)
    | Expr.Slice (a, hi, lo) -> Word.select (ev a) ~hi ~lo
    | Expr.Concat es -> Word.concat (List.map ev es)
    | Expr.Zext (a, w) -> Word.uresize (ev a) w
    | Expr.Sext (a, w) -> Word.sresize (ev a) w
    | Expr.Repeat (a, n) -> Word.repeat (ev a) n
    | Expr.Mem_read (m, a) ->
      let words = Hashtbl.find mem_words m in
      let default = Array.make (Array.length words.(0)) Aig.false_ in
      Word.mux_index g ~default (ev a) words
  in
  (* Wires in topological order. *)
  List.iter (fun (n, e) -> Hashtbl.replace values n (ev e)) design.e_wires;
  let outputs = List.map (fun (n, e) -> (n, ev e)) design.e_outputs in
  (* Next state. *)
  let reg_next =
    List.map
      (fun r ->
        let cur = Hashtbl.find values r.reg_name in
        let nxt = ev r.next in
        let nxt =
          match r.enable with
          | None -> nxt
          | Some e ->
            let en = ev e in
            Word.mux g ~sel:en.(0) nxt cur
        in
        (Reg r.reg_name, nxt))
      design.e_regs
  in
  let mem_next =
    List.concat_map
      (fun m ->
        let words = Hashtbl.find mem_words m.mem_name in
        (* Evaluate each write port once; apply to every word with an
           address decoder.  Later ports override earlier ones. *)
        let ports =
          List.map
            (fun wp -> (ev wp.wr_enable, ev wp.wr_addr, ev wp.wr_data))
            m.writes
        in
        List.init m.mem_size (fun i ->
            let next_word =
              List.fold_left
                (fun acc (en, addr, data) ->
                  let iw =
                    Word.const (Bitvec.create ~width:(Array.length addr) i)
                  in
                  let hit = Aig.and_ g en.(0) (Word.eq g addr iw) in
                  Word.mux g ~sel:hit data acc)
                words.(i) ports
            in
            (Mem_word (m.mem_name, i), next_word)))
      design.e_mems
  in
  (outputs, reg_next @ mem_next)
