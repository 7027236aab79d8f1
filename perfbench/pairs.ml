(* The design registry of the dfv CLI, by the same (design, bug) names,
   so the in-process answers this benchmark checks serve responses
   against are built from the same pairs the daemon resolves. *)
open Dfv_designs
module Pair = Dfv_core.Pair

let make design bug =
  match (design, bug) with
  | "gcd", "none" ->
    let t = Gcd.make ~width:4 in
    Pair.create ~name:"gcd" ~slm:t.Gcd.slm ~rtl:t.Gcd.rtl ~spec:t.Gcd.spec
  | "alu", _ ->
    let bug =
      if bug = "none" then None
      else
        match List.find_opt (fun b -> Alu.bug_name b = bug) Alu.all_bugs with
        | Some b -> Some b
        | None -> invalid_arg ("Pairs.make: alu bug " ^ bug)
    in
    let t = Alu.make ?bug ~width:8 () in
    Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec
  | ("fir" | "fir-hot"), ("none" | "cstyle") ->
    let taps = if design = "fir" then [ 3; -5; 7; 2 ] else [ 127; 127; 127; -128 ] in
    let t = Fir.make ~taps () in
    let slm = if bug = "cstyle" then t.Fir.slm_cstyle else t.Fir.slm_exact in
    Pair.create ~name:design ~slm ~rtl:t.Fir.rtl ~spec:t.Fir.spec
  | "conv", ("none" | "wrap") ->
    let good = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
    let rtl =
      if bug = "none" then good.Conv_image.rtl_window
      else
        (Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ())
          .Conv_image.rtl_window
    in
    Pair.create ~name:"conv" ~slm:good.Conv_image.slm_window ~rtl
      ~spec:good.Conv_image.window_spec
  | "uart", ("none" | "baud") ->
    let t = Uart.make ~baud_div:4 () in
    let rtl =
      if bug = "baud" then (Uart.make ~baud_div:5 ()).Uart.rtl else t.Uart.rtl
    in
    Pair.create ~name:"uart" ~slm:t.Uart.slm ~rtl ~spec:t.Uart.spec
  | "chain", _ ->
    let buggy =
      match bug with
      | "none" -> None
      | "brightness" -> Some Image_chain.Brightness
      | "convolution" -> Some Image_chain.Convolution
      | "threshold" -> Some Image_chain.Threshold
      | b -> invalid_arg ("Pairs.make: chain bug " ^ b)
    in
    let t = Image_chain.make ?buggy () in
    Pair.create ~name:"chain" ~slm:t.Image_chain.slm ~rtl:t.Image_chain.rtl_top
      ~spec:t.Image_chain.chain_spec
  | d, b -> invalid_arg (Printf.sprintf "Pairs.make: %s/%s" d b)
