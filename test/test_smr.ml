(* Tests of the replicated applications: semantics, snapshot/restore, and
   determinism. *)

module Appi = Cp_proto.Appi
module Kv = Cp_smr.Kv
module Counter = Cp_smr.Counter
module Bank = Cp_smr.Bank
module Lock = Cp_smr.Lock
module Fifo = Cp_smr.Fifo

let check_app name (module A : Appi.S) script =
  let inst = Appi.instantiate (module A) in
  List.iter
    (fun (op, expected) ->
      Alcotest.(check string) (name ^ ": " ^ op) expected (inst.Appi.apply op))
    script

(* --- KV --------------------------------------------------------------- *)

let test_kv_semantics () =
  check_app "kv"
    (module Kv)
    [
      (Kv.get "a", "NONE");
      (Kv.put "a" "1", "OK");
      (Kv.get "a", "1");
      (Kv.cas "a" ~old:"1" ~new_:"2", "OK");
      (Kv.cas "a" ~old:"1" ~new_:"3", "FAIL");
      (Kv.get "a", "2");
      (Kv.del "a", "OK");
      (Kv.get "a", "NONE");
      (Kv.cas "missing" ~old:"x" ~new_:"y", "FAIL");
      ("GARBAGE", "ERR");
    ]

let test_kv_parse_result () =
  Alcotest.(check bool) "ok" true (Kv.parse_result "OK" = Kv.Ok);
  Alcotest.(check bool) "none" true (Kv.parse_result "NONE" = Kv.None_);
  Alcotest.(check bool) "fail" true (Kv.parse_result "FAIL" = Kv.Fail);
  Alcotest.(check bool) "value" true (Kv.parse_result "7" = Kv.Value "7")

(* --- Counter ---------------------------------------------------------- *)

let test_counter_semantics () =
  check_app "counter"
    (module Counter)
    [ (Counter.get, "0"); (Counter.inc 5, "5"); (Counter.inc 3, "8"); (Counter.get, "8") ]

(* --- Bank ------------------------------------------------------------- *)

let test_bank_semantics () =
  check_app "bank"
    (module Bank)
    [
      (Bank.balance "a", "FAIL");
      (Bank.open_ "a" 100, "OK");
      (Bank.open_ "a" 50, "FAIL");
      (Bank.open_ "b" 30, "OK");
      (Bank.deposit "a" 20, "OK");
      (Bank.withdraw "a" 200, "FAIL");
      (Bank.withdraw "a" 20, "OK");
      (Bank.transfer "a" "b" 60, "OK");
      (Bank.transfer "a" "b" 1000, "FAIL");
      (Bank.transfer "a" "missing" 1, "FAIL");
      (Bank.transfer "a" "a" 1, "FAIL");
      (Bank.balance "a", "40");
      (Bank.balance "b", "90");
      (Bank.total, "130");
    ]

(* Random transfers conserve the total. *)
let prop_bank_conservation =
  QCheck.Test.make ~name:"bank total conserved under random ops" ~count:200
    QCheck.(list (triple (int_range 0 3) (int_range 0 3) (int_range 0 50)))
    (fun transfers ->
      let inst = Appi.instantiate (module Bank) in
      for i = 0 to 3 do
        ignore (inst.Appi.apply (Bank.open_ ("a" ^ string_of_int i) 100))
      done;
      List.iter
        (fun (src, dst, amt) ->
          ignore
            (inst.Appi.apply
               (Bank.transfer ("a" ^ string_of_int src) ("a" ^ string_of_int dst) amt)))
        transfers;
      inst.Appi.apply Bank.total = "400")

(* Negative amounts must be refused everywhere. *)
let test_bank_negative_amounts () =
  check_app "bank-negative"
    (module Bank)
    [
      (Bank.open_ "a" 100, "OK");
      (Bank.open_ "b" 100, "OK");
      ("DEPOSIT a -5", "FAIL");
      ("WITHDRAW a -5", "FAIL");
      ("TRANSFER a b -5", "FAIL");
      ("OPEN c -1", "FAIL");
      (Bank.total, "200");
    ]

(* --- Lock ------------------------------------------------------------- *)

let test_lock_semantics () =
  check_app "lock"
    (module Lock)
    [
      (Lock.holder "l", "NONE");
      (Lock.acquire ~owner:"alice" "l", "OK");
      (Lock.acquire ~owner:"alice" "l", "OK");
      (Lock.acquire ~owner:"bob" "l", "BUSY alice");
      (Lock.release ~owner:"bob" "l", "FAIL");
      (Lock.holder "l", "alice");
      (Lock.release ~owner:"alice" "l", "OK");
      (Lock.release ~owner:"alice" "l", "FAIL");
      (Lock.acquire ~owner:"bob" "l", "OK");
      (Lock.holder "l", "bob");
    ]

(* --- Fifo ------------------------------------------------------------- *)

let test_fifo_semantics () =
  check_app "fifo"
    (module Fifo)
    [
      (Fifo.pop, "EMPTY");
      (Fifo.push "a", "OK");
      (Fifo.push "b", "OK");
      (Fifo.len, "2");
      (Fifo.pop, "a");
      (Fifo.push "c", "OK");
      (Fifo.pop, "b");
      (Fifo.pop, "c");
      (Fifo.pop, "EMPTY");
      (Fifo.len, "0");
    ]

let prop_fifo_order =
  QCheck.Test.make ~name:"fifo pops in push order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (int_range 0 100))
    (fun xs ->
      let inst = Appi.instantiate (module Fifo) in
      List.iter (fun x -> ignore (inst.Appi.apply (Fifo.push (string_of_int x)))) xs;
      List.for_all (fun x -> inst.Appi.apply Fifo.pop = string_of_int x) xs
      && inst.Appi.apply Fifo.pop = "EMPTY")

(* --- Snapshot / restore ------------------------------------------------ *)

(* For each app: apply a prefix, snapshot, continue on both the original and
   a restored copy — results must be identical (determinism across state
   transfer, which replica recovery relies on). *)
let snapshot_roundtrip name (module A : Appi.S) prefix suffix =
  let a = Appi.instantiate (module A) in
  List.iter (fun op -> ignore (a.Appi.apply op)) prefix;
  let snap = a.Appi.snapshot () in
  let b = Appi.instantiate (module A) in
  b.Appi.restore snap;
  List.iter
    (fun op ->
      Alcotest.(check string) (name ^ "/" ^ op) (a.Appi.apply op) (b.Appi.apply op))
    suffix

let test_snapshot_roundtrips () =
  snapshot_roundtrip "kv"
    (module Kv)
    [ Kv.put "x" "1"; Kv.put "y" "2" ]
    [ Kv.get "x"; Kv.cas "y" ~old:"2" ~new_:"3"; Kv.get "y"; Kv.del "x"; Kv.get "x" ];
  snapshot_roundtrip "counter" (module Counter) [ Counter.inc 41 ] [ Counter.inc 1; Counter.get ];
  snapshot_roundtrip "bank"
    (module Bank)
    [ Bank.open_ "a" 10; Bank.open_ "b" 20 ]
    [ Bank.transfer "a" "b" 5; Bank.balance "a"; Bank.balance "b"; Bank.total ];
  snapshot_roundtrip "lock"
    (module Lock)
    [ Lock.acquire ~owner:"x" "l1" ]
    [ Lock.acquire ~owner:"y" "l1"; Lock.holder "l1"; Lock.release ~owner:"x" "l1" ];
  snapshot_roundtrip "fifo"
    (module Fifo)
    [ Fifo.push "1"; Fifo.push "2"; Fifo.pop ]
    [ Fifo.pop; Fifo.len; Fifo.pop ]

(* Snapshots are structural (no Marshal): byte-identical regardless of the
   hashtable's insertion history, so divergent replicas that reached the same
   state produce the same snapshot on any OCaml version. *)
let test_snapshot_insertion_order_independent () =
  let build (module A : Appi.S) ops =
    let a = Appi.instantiate (module A) in
    List.iter (fun op -> ignore (a.Appi.apply op)) ops;
    a.Appi.snapshot ()
  in
  let check name (module A : Appi.S) ops1 ops2 =
    Alcotest.(check string)
      (name ^ " snapshots agree")
      (build (module A) ops1)
      (build (module A) ops2)
  in
  check "kv"
    (module Kv)
    [ Kv.put "a" "1"; Kv.put "b" "2"; Kv.put "c" "3" ]
    (* Same final state via a different history: reversed inserts, an
       overwrite, and a deleted extra key. *)
    [ Kv.put "c" "9"; Kv.put "x" "tmp"; Kv.put "b" "2"; Kv.put "a" "1";
      Kv.put "c" "3"; Kv.del "x" ];
  check "bank"
    (module Bank)
    [ Bank.open_ "a" 10; Bank.open_ "b" 20 ]
    [ Bank.open_ "b" 20; Bank.open_ "a" 10 ];
  check "lock"
    (module Lock)
    [ Lock.acquire ~owner:"x" "l1"; Lock.acquire ~owner:"y" "l2" ]
    [ Lock.acquire ~owner:"y" "l2"; Lock.acquire ~owner:"x" "l1" ]

let test_snapshot_rejects_garbage () =
  List.iter
    (fun (module A : Appi.S) ->
      let a = Appi.instantiate (module A) in
      Alcotest.(check bool)
        (A.name ^ " rejects junk")
        true
        (try
           a.Appi.restore "\xff\xfe not a snapshot";
           false
         with Invalid_argument _ -> true))
    [ (module Kv); (module Bank); (module Lock); (module Fifo) ]

(* Two instances fed the same ops agree — the determinism SMR requires. *)
let prop_kv_deterministic =
  QCheck.Test.make ~name:"kv is deterministic" ~count:100
    QCheck.(list (pair (int_range 0 5) (int_range 0 5)))
    (fun pairs ->
      let ops =
        List.concat_map
          (fun (k, v) ->
            let key = "k" ^ string_of_int k in
            [ Kv.put key (string_of_int v); Kv.get key ])
          pairs
      in
      let a = Appi.instantiate (module Kv) in
      let b = Appi.instantiate (module Kv) in
      List.for_all (fun op -> a.Appi.apply op = b.Appi.apply op) ops)

(* --- table snapshots ------------------------------------------------------ *)

module Codec = Cp_proto.Codec
module Snap = Cp_smr.Snap

(* A table snapshot as first written, through a [Buffer] grown from 256 B:
   the reference the sized writer must match byte for byte. *)
let buffer_snapshot write_value tbl =
  Snap.to_string (fun buf ->
      Snap.write_list buf
        (fun buf (k, v) ->
          Codec.write_string buf k;
          write_value buf v)
        (Snap.sorted_bindings tbl))

let table_of pairs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) pairs;
  tbl

(* Keys without spaces (usable in app ops), long enough to cross the one-
   byte varint length. *)
let word = QCheck.(string_gen_of_size Gen.(int_range 1 200) Gen.(char_range 'a' 'z'))

let prop_table_snapshot_bytes =
  QCheck.Test.make ~name:"table snapshot = Buffer encoding, string and int values" ~count:200
    QCheck.(pair (list (pair word string)) (list (pair word int)))
    (fun (strings, ints) ->
      let s = table_of strings and i = table_of ints in
      Snap.table_snapshot Snap.string_value s = buffer_snapshot Codec.write_string s
      && Snap.table_snapshot Snap.int_value i = buffer_snapshot Codec.write_varint i)

(* KV, Bank and Lock, driven by ops, snapshot the table the ops built (a
   shadow kept here) exactly as the reference encodes it. *)
let prop_app_snapshot_bytes =
  QCheck.Test.make ~name:"kv, bank and lock snapshots = Buffer encoding" ~count:100
    QCheck.(triple (list (pair word word)) (list (pair word small_nat)) (list (pair word word)))
    (fun (puts, opens, acquires) ->
      let run (module A : Appi.S) ops =
        let inst = Appi.instantiate (module A) in
        List.iter (fun op -> ignore (inst.Appi.apply op)) ops;
        inst.Appi.snapshot ()
      in
      (* OPEN and ACQUIRE keep the first binding of a key. *)
      let first pairs = table_of (List.rev pairs) in
      let deleted = List.filteri (fun n _ -> n mod 3 = 0) puts |> List.map fst in
      let kv = table_of puts in
      List.iter (Hashtbl.remove kv) deleted;
      run (module Kv)
        (List.map (fun (k, v) -> Kv.put k v) puts @ List.map Kv.del deleted)
      = buffer_snapshot Codec.write_string kv
      && run (module Bank)
           (List.map (fun (a, n) -> Printf.sprintf "OPEN %s %d" a n) opens)
         = buffer_snapshot Codec.write_varint (first opens)
      && run (module Lock)
           (List.map (fun (owner, lock) -> Printf.sprintf "ACQUIRE %s %s" owner lock) acquires)
         = buffer_snapshot Codec.write_string
             (first (List.map (fun (owner, lock) -> (lock, owner)) acquires)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "kv semantics" `Quick test_kv_semantics;
    Alcotest.test_case "kv parse_result" `Quick test_kv_parse_result;
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "bank semantics" `Quick test_bank_semantics;
    Alcotest.test_case "bank negative amounts" `Quick test_bank_negative_amounts;
    Alcotest.test_case "lock semantics" `Quick test_lock_semantics;
    Alcotest.test_case "fifo semantics" `Quick test_fifo_semantics;
    Alcotest.test_case "snapshot roundtrips" `Quick test_snapshot_roundtrips;
    Alcotest.test_case "snapshots are insertion-order independent" `Quick
      test_snapshot_insertion_order_independent;
    Alcotest.test_case "restore rejects garbage" `Quick test_snapshot_rejects_garbage;
  ]
  @ qsuite
      [
        prop_bank_conservation;
        prop_fifo_order;
        prop_kv_deterministic;
        prop_table_snapshot_bytes;
        prop_app_snapshot_bytes;
      ]
