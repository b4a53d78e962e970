(* Kernel parity on the paper's Table-1 roster at full scale: legalize
   each of the 16 designs as the CLI flow does (Config.default, fences
   and routability on), calling the arena kernel and the reference
   kernel on every window (Lockstep.run). Grown windows, where the
   component of a block can span many rows, occur at this scale; tier-1
   runs the same walk at scale 0.1.

     dune exec test/oracle/kernel_parity.exe -- [SCALE]   (default 1.0)

   Prints one line per design and exits 1 if any window diverged. *)

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 1.0
  in
  let diverged = ref [] in
  List.iter
    (fun (spec : Mcl_gen.Spec.t) ->
       let d = Mcl_gen.Generator.generate spec in
       let t0 = Sys.time () in
       let ok, ctx = Lockstep.run ~disp_from:`Gp Mcl.Config.default d in
       let k = Mcl.Arena.counters ctx.Mcl.Insertion.arena in
       Printf.printf "%-20s %6d cells %7d windows %9d cuts %8d pruned %7.1f s  %s\n%!"
         spec.Mcl_gen.Spec.name
         (Mcl_netlist.Design.num_cells d)
         k.Mcl.Arena.windows_built k.Mcl.Arena.cuts_evaluated
         k.Mcl.Arena.cuts_pruned (Sys.time () -. t0)
         (if ok then "ok" else "DIVERGED");
       if not ok then diverged := spec.Mcl_gen.Spec.name :: !diverged)
    (Mcl_gen.Suites.iccad2017 ~scale ());
  match List.rev !diverged with
  | [] -> print_endline "kernel parity: every window agrees"
  | names ->
    Printf.printf "kernel parity: diverged on %s\n" (String.concat ", " names);
    exit 1
