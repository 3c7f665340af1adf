(* The same Cheap Paxos stack over real UDP sockets on loopback: three
   machine processes (as threads), one client, actual datagrams encoded with
   the binary codec. Everything protocol-level is byte-for-byte the code the
   simulator runs.

   Run with: dune exec examples/real_udp.exe *)

module Node = Cp_netio.Node
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client
module Kv = Cp_smr.Kv

let base_port = 47311

let port_of id = base_port + id

let id_of_port port = port - base_port

let () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let universe_mains = [ 0; 1 ] and universe_auxes = [ 2 ] in
  let replicas = Hashtbl.create 4 in
  let make id role =
    Node.create ~port_of ~id_of_port ~id ~seed:11
      ~build:(fun ctx ->
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params:Cp_engine.Params.default ~initial ~universe_mains ~universe_auxes
            ~app:(module Kv)
        in
        Hashtbl.replace replicas id r;
        Replica.handlers r)
      ()
  in
  let nodes =
    List.map (fun id -> make id Replica.Main) universe_mains
    @ List.map (fun id -> make id Replica.Aux) universe_auxes
  in
  Printf.printf "3 machines live on udp/127.0.0.1:%d-%d\n%!" base_port (base_port + 2);

  let script =
    [| Kv.put "lang" "ocaml"; Kv.put "proto" "cheap-paxos"; Kv.get "lang";
       Kv.cas "proto" ~old:"cheap-paxos" ~new_:"dsn-2004"; Kv.get "proto" |]
  in
  let client_cell = ref None in
  let client_node =
    Node.create ~port_of ~id_of_port ~id:1000 ~seed:5
      ~build:(fun ctx ->
        let c =
          Client.create ctx ~mains:universe_mains ~timeout:0.25
            ~ops:(fun seq ->
              if seq <= Array.length script then Some script.(seq - 1) else None)
            ()
        in
        client_cell := Some c;
        Client.handlers c)
      ()
  in
  let client = Option.get !client_cell in
  let deadline = Unix.gettimeofday () +. 15. in
  while
    (not (Node.with_lock client_node (fun () -> Client.is_finished client)))
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.02
  done;

  let finished = Node.with_lock client_node (fun () -> Client.is_finished client) in
  Printf.printf "client finished: %b\n" finished;
  print_endline "client history over real sockets:";
  List.iter
    (fun (_, _, op, result) -> Printf.printf "  %-28s -> %s\n" op result)
    (Node.with_lock client_node (fun () -> Client.history client));

  Thread.delay 0.1;
  let r0 = Hashtbl.find replicas 0 and r1 = Hashtbl.find replicas 1 in
  let agree = Replica.log_range r0 ~lo:0 ~hi:max_int = Replica.log_range r1 ~lo:0 ~hi:max_int in
  Printf.printf "replica logs agree: %b (prefixes %d / %d)\n" agree (Replica.prefix r0)
    (Replica.prefix r1);
  Printf.printf "auxiliary stored votes: %d\n"
    (Replica.acceptor_vote_count (Hashtbl.find replicas 2));
  List.iter Node.shutdown (client_node :: nodes);
  print_endline "done.";
  if not (finished && agree) then exit 1
