(* Refactor-equivalence golden traces: replay three seeded fault schedules
   and require the merged typed event stream (every node's obs ring) to be
   byte-identical to the committed dump. Any accidental behaviour change in
   the replica core — reordered sends, a lost event, a different proposal
   shape — shows up here as a diff. Regenerate deliberately with
   `dune exec test/golden_gen.exe`. *)

module Golden = Cp_harness.Golden

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* First line that differs, for a readable failure message. *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of golden>")
    | [], y :: _ -> Some (i, "<end of run>", y)
  in
  go 1 (la, lb)

let check_case case () =
  let path = Golden.file_of case in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s (run `dune exec test/golden_gen.exe`)" path;
  let expected = read_file path in
  let actual = Golden.dump_case case in
  if not (String.equal actual expected) then begin
    match first_diff actual expected with
    | Some (line, got, want) ->
      Alcotest.failf "%s: trace diverges from golden at line %d:\n  run:    %s\n  golden: %s"
        case.Golden.name line got want
    | None -> Alcotest.failf "%s: traces differ (length only?)" case.Golden.name
  end

(* The Chrome trace-event export of the failover case is pinned the same
   way: a seeded schedule must render to byte-identical Perfetto JSON. *)
let check_chrome () =
  let case = Golden.failover_batch in
  let path = Golden.chrome_file_of case in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s (run `dune exec test/golden_gen.exe`)" path;
  let expected = read_file path in
  let actual = Golden.dump_chrome case in
  if not (String.equal actual expected) then begin
    match first_diff actual expected with
    | Some (line, got, want) ->
      Alcotest.failf "chrome export diverges from golden at line %d:\n  run:    %s\n  golden: %s"
        line got want
    | None -> Alcotest.fail "chrome export differs (length only?)"
  end

let suite =
  List.map
    (fun case ->
      Alcotest.test_case ("golden trace: " ^ case.Golden.name) `Slow (check_case case))
    Golden.cases
  @ [
      Alcotest.test_case "golden chrome export: failover_batch" `Slow check_chrome;
    ]
