(* Regenerate the committed golden traces under test/golden/. Run from the
   repo root: `dune exec test/golden_gen.exe`. Only regenerate when a
   deliberate behaviour change is introduced — the point of these files is
   to fail the build when the replica's event stream drifts by accident. *)

let () =
  let dir = Filename.concat "test" "golden" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun case ->
      let dump = Cp_harness.Golden.dump_case case in
      let path = Filename.concat "test" (Cp_harness.Golden.file_of case) in
      let oc = open_out path in
      output_string oc dump;
      close_out oc;
      Printf.printf "wrote %s (%d lines)\n" path
        (List.length (String.split_on_char '\n' dump) - 1))
    Cp_harness.Golden.cases;
  (* One committed Chrome trace-event snapshot pins the Perfetto exporter's
     output format (for failover_batch only; the other cases exercise the
     same code). *)
  let case = Cp_harness.Golden.failover_batch in
  let chrome = Cp_harness.Golden.dump_chrome case in
  let path = Filename.concat "test" (Cp_harness.Golden.chrome_file_of case) in
  let oc = open_out path in
  output_string oc chrome;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length chrome);
  (* The transport-conformance trace: the simulator's canonical dump of the
     seeded schedule that the ring and UDP transports must reproduce byte
     for byte (test_transport.ml). *)
  let dump = Cp_harness.Conformance.run_sim () in
  let path = Filename.concat "test" Cp_harness.Conformance.golden_file in
  let oc = open_out path in
  output_string oc dump;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (List.length (String.split_on_char '\n' dump) - 1)

(* The counters of a seeded replica cluster over the ring fabric. *)
let () =
  let path = Filename.concat "test" Cp_harness.Golden.ring_counters_file in
  let dump = Cp_harness.Golden.ring_counters () in
  let oc = open_out path in
  output_string oc dump;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path (List.length (String.split_on_char '\n' dump) - 1)
