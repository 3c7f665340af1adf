type command = { client : int; seq : int; op : string }

type reconfig =
  | Remove_main of int
  | Add_main of int

type entry =
  | Noop
  | App of command
  | Batch of command list
  | Reconfig of reconfig

type vote = { vballot : Ballot.t; ventry : entry }

type snapshot = {
  next_instance : int;
  app_state : string;
  sessions : (int * (int * (int * string) list)) list;
  base_config : Config.t;
  pending_configs : (int * Config.t) list;
}

type msg =
  | P1a of { ballot : Ballot.t; low : int }
  | P1b of {
      ballot : Ballot.t;
      from : int;
      votes : (int * vote) list;
      compacted_upto : int;
    }
  | P1Nack of { ballot : Ballot.t; promised : Ballot.t }
  | P2a of { ballot : Ballot.t; instance : int; entry : entry }
  | P2b of { ballot : Ballot.t; instance : int; from : int }
  | P2Nack of { ballot : Ballot.t; instance : int; promised : Ballot.t }
  | Commit of { instance : int; entry : entry }
  | CommitFloor of { upto : int }
  | Heartbeat of { ballot : Ballot.t; commit_floor : int; sent_at : float }
  | HeartbeatAck of { ballot : Ballot.t; from : int; prefix : int; echo : float }
  | CatchupReq of { from : int; from_instance : int }
  | CatchupResp of {
      entries : (int * entry) list;
      snapshot : snapshot option;
    }
  | JoinReq of { from : int }
  | ClientReq of command
  | ClientRead of command
  | ClientResp of { client : int; seq : int; result : string }
  | Redirect of { leader_hint : int }

(* Constructor index, in declaration order: the key of the per-kind counter
   arrays the runtimes build once, so no hot path formats a counter name. *)
let kind_index = function
  | P1a _ -> 0
  | P1b _ -> 1
  | P1Nack _ -> 2
  | P2a _ -> 3
  | P2b _ -> 4
  | P2Nack _ -> 5
  | Commit _ -> 6
  | CommitFloor _ -> 7
  | Heartbeat _ -> 8
  | HeartbeatAck _ -> 9
  | CatchupReq _ -> 10
  | CatchupResp _ -> 11
  | JoinReq _ -> 12
  | ClientReq _ -> 13
  | ClientRead _ -> 14
  | ClientResp _ -> 15
  | Redirect _ -> 16

let kinds =
  [|
    "p1a";
    "p1b";
    "p1nack";
    "p2a";
    "p2b";
    "p2nack";
    "commit";
    "commit_floor";
    "heartbeat";
    "heartbeat_ack";
    "catchup_req";
    "catchup_resp";
    "join_req";
    "client_req";
    "client_read";
    "client_resp";
    "redirect";
  |]

let classify msg = Array.unsafe_get kinds (kind_index msg)

(* Wire-size model: a fixed header plus integer fields (8 bytes each) plus
   string payloads. The exact constants matter only for byte-count metrics,
   not protocol behaviour. *)
let header = 16

let int_field = 8

let command_size ({ op; _ } : command) = (2 * int_field) + String.length op

let entry_size = function
  | Noop -> int_field
  | App cmd -> int_field + command_size cmd
  | Batch cmds ->
    int_field + List.fold_left (fun acc c -> acc + int_field + command_size c) 0 cmds
  | Reconfig _ -> 2 * int_field

let vote_size { ventry; _ } = (2 * int_field) + entry_size ventry

let snapshot_size s =
  (2 * int_field)
  + String.length s.app_state
  + (List.length s.sessions * 2 * int_field)
  + List.fold_left
      (fun acc (_, (_, replies)) ->
        List.fold_left
          (fun acc (_, reply) -> acc + (2 * int_field) + String.length reply)
          acc replies)
      0 s.sessions
  + ((List.length s.pending_configs + 1) * 8 * int_field)

let size_of = function
  | P1a _ -> header + (3 * int_field)
  | P1b { votes; _ } ->
    header + (4 * int_field)
    + List.fold_left (fun acc (_, v) -> acc + int_field + vote_size v) 0 votes
  | P1Nack _ -> header + (4 * int_field)
  | P2a { entry; _ } -> header + (3 * int_field) + entry_size entry
  | P2b _ -> header + (3 * int_field)
  | P2Nack _ -> header + (5 * int_field)
  | Commit { entry; _ } -> header + int_field + entry_size entry
  | CommitFloor _ -> header + int_field
  | Heartbeat _ -> header + (4 * int_field)
  | HeartbeatAck _ -> header + (5 * int_field)
  | CatchupReq _ -> header + (2 * int_field)
  | CatchupResp { entries; snapshot } ->
    header
    + List.fold_left (fun acc (_, e) -> acc + int_field + entry_size e) 0 entries
    + (match snapshot with None -> 0 | Some s -> snapshot_size s)
  | JoinReq _ -> header + int_field
  | ClientReq { op; _ } -> header + (2 * int_field) + String.length op
  | ClientRead { op; _ } -> header + (2 * int_field) + String.length op
  | ClientResp { result; _ } -> header + (2 * int_field) + String.length result
  | Redirect _ -> header + int_field

let pp_entry ppf = function
  | Noop -> Format.fprintf ppf "noop"
  | App { client; seq; op } -> Format.fprintf ppf "app(%d.%d:%s)" client seq op
  | Batch cmds -> Format.fprintf ppf "batch(%d cmds)" (List.length cmds)
  | Reconfig (Remove_main m) -> Format.fprintf ppf "remove_main(%d)" m
  | Reconfig (Add_main m) -> Format.fprintf ppf "add_main(%d)" m

let pp_msg ppf = function
  | P1a { ballot; low } -> Format.fprintf ppf "p1a(%a,low=%d)" Ballot.pp ballot low
  | P1b { ballot; from; votes; compacted_upto } ->
    Format.fprintf ppf "p1b(%a,from=%d,|votes|=%d,compacted=%d)" Ballot.pp ballot from
      (List.length votes) compacted_upto
  | P1Nack { ballot; promised } ->
    Format.fprintf ppf "p1nack(%a,promised=%a)" Ballot.pp ballot Ballot.pp promised
  | P2a { ballot; instance; entry } ->
    Format.fprintf ppf "p2a(%a,%d,%a)" Ballot.pp ballot instance pp_entry entry
  | P2b { ballot; instance; from } ->
    Format.fprintf ppf "p2b(%a,%d,from=%d)" Ballot.pp ballot instance from
  | P2Nack { ballot; instance; promised } ->
    Format.fprintf ppf "p2nack(%a,%d,promised=%a)" Ballot.pp ballot instance Ballot.pp
      promised
  | Commit { instance; entry } ->
    Format.fprintf ppf "commit(%d,%a)" instance pp_entry entry
  | CommitFloor { upto } -> Format.fprintf ppf "commit_floor(%d)" upto
  | Heartbeat { ballot; commit_floor; sent_at } ->
    Format.fprintf ppf "heartbeat(%a,floor=%d,at=%.4f)" Ballot.pp ballot commit_floor sent_at
  | HeartbeatAck { ballot; from; prefix; echo } ->
    Format.fprintf ppf "heartbeat_ack(%a,from=%d,prefix=%d,echo=%.4f)" Ballot.pp ballot from
      prefix echo
  | CatchupReq { from; from_instance } ->
    Format.fprintf ppf "catchup_req(from=%d,at=%d)" from from_instance
  | CatchupResp { entries; snapshot } ->
    Format.fprintf ppf "catchup_resp(|entries|=%d,snap=%b)" (List.length entries)
      (snapshot <> None)
  | JoinReq { from } -> Format.fprintf ppf "join_req(%d)" from
  | ClientReq { client; seq; op } ->
    Format.fprintf ppf "client_req(%d.%d:%s)" client seq op
  | ClientRead { client; seq; op } ->
    Format.fprintf ppf "client_read(%d.%d:%s)" client seq op
  | ClientResp { client; seq; result } ->
    Format.fprintf ppf "client_resp(%d.%d:%s)" client seq result
  | Redirect { leader_hint } -> Format.fprintf ppf "redirect(%d)" leader_hint

let command_equal (x : command) (y : command) =
  x.client = y.client && x.seq = y.seq && x.op = y.op

let entry_equal a b =
  match (a, b) with
  | Noop, Noop -> true
  | App x, App y -> command_equal x y
  | Batch xs, Batch ys ->
    List.length xs = List.length ys && List.for_all2 command_equal xs ys
  | Reconfig x, Reconfig y -> x = y
  | (Noop | App _ | Batch _ | Reconfig _), _ -> false
