(* Deep checking: explicit-state exploration of the {e real} replica.

   {!Mc} and {!Mc_multi} check hand-written abstractions of the quorum and
   reconfiguration cores; this module instead drives the production
   transition function — {!Cp_engine.Core.step} over {!Cp_engine.State.t},
   the exact code the simulator and the UDP runtime execute — under the
   same message-soup semantics. Sent messages accumulate in a monotone
   sorted set, so loss (never delivering), reordering, and duplication are
   all subsumed by the choice of which soup message to deliver next; time
   advances only through explicit tick transitions, bounded by [max_ticks].

   This is exactly what the sans-IO split buys: [Core.step] is a pure
   function of (state, clock, input) returning effects as data, so the
   checker can clone a node ({!State.clone}), step it, answer its
   burst-end requests as a runtime does ({!Core.end_burst}: one delivery or
   tick is one burst), fold the [Send] effects back into the soup, and
   canonically fingerprint the result
   ({!State.fingerprint}) — no engine, no timers, no IO.

   Model: f = 1 — mains {0, 1}, auxiliary {2} — with [n_commands] client
   commands seeded to both mains from a pseudo-client. Election fuzz is
   zeroed and follower/suspect timeouts are pushed out of reach, so the
   explored nondeterminism is purely message asynchrony; heartbeat,
   retransmit, and widen periods sit below one tick so tick transitions
   exercise the widening and retransmission paths. *)

module State = Cp_engine.State
module Core = Cp_engine.Core
module Effect = Cp_engine.Effect
module Policy = Cp_engine.Policy
module Params = Cp_engine.Params
module Acceptor = Cp_engine.Acceptor
module Log = Cp_engine.Log
module Rng = Cp_util.Rng
open Cp_proto

type spec = {
  n_commands : int;  (** client commands seeded into the soup *)
  max_ticks : int;  (** bound on tick transitions along any path *)
}

let default_spec = { n_commands = 2; max_ticks = 4 }

type result = {
  states : int;
  violation : string option;
  max_depth : int;
}

(* --- the model ---------------------------------------------------------- *)

let tick_delta = 0.05

let mc_params =
  {
    Params.default with
    Params.election_fuzz = 0.;
    leader_timeout = 1e9;
    (* mains never suspect each other spontaneously: elections beyond the
       boot-time one would explode the state space without adding coverage
       of the choose/learn paths this model targets *)
    suspect_timeout = 1e9;
    widen_timeout = tick_delta /. 2.;
    hb_interval = tick_delta /. 2.;
    retransmit = tick_delta /. 2.;
    enable_leases = false;
    batch_linger = 0.;
  }

let mc_policy =
  { Policy.name = "mc-cheap"; narrow_phase2 = true; widen_on_timeout = true; reconfigure = false }

module Toy_app = struct
  type state = string ref

  let name = "mc-toy"

  let init () = ref ""

  let apply st op =
    st := !st ^ op ^ ";";
    !st

  let read_only _ = false

  let snapshot st = !st

  let restore s = ref s
end

let client_id = 1000

type world = {
  nodes : (int * State.t) list; (* ascending by id *)
  soup : (int * int * Types.msg) list; (* (src, dst, msg); sorted, deduplicated *)
  ticks : int;
  clock : float;
}

let node_ids w = List.map fst w.nodes

let replace_node w id node =
  { w with nodes = List.map (fun (i, n) -> if i = id then (i, node) else (i, n)) w.nodes }

let add_soup w entries =
  let soup =
    List.fold_left (fun s e -> if List.mem e s then s else e :: s) w.soup entries
    |> List.sort_uniq compare
  in
  { w with soup }

(* Fold a step's [Send] effects back into the soup; sends to ids outside the
   model (the pseudo-client) fall on the floor, which is exactly loss. *)
let absorb w ~src effects =
  let ids = node_ids w in
  let sends =
    Effect.sends effects
    |> List.filter_map (fun (dst, msg) -> if List.mem dst ids then Some (src, dst, msg) else None)
  in
  add_soup w sends

let initial_world spec =
  let initial = Config.cheap ~f:1 in
  let universe_mains = initial.Config.mains in
  let universe_auxes = initial.Config.aux_pool in
  let make id role =
    Core.create ~self:id ~now:0. ~rng:(Rng.create (id + 1)) ~role ~policy:mc_policy
      ~params:mc_params ~initial ~universe_mains ~universe_auxes
      ~app:(module Toy_app : Appi.S) ~recovery:State.fresh_boot
  in
  let boots =
    List.map (fun id -> (id, make id State.Main)) universe_mains
    @ List.map (fun id -> (id, make id State.Aux)) universe_auxes
  in
  let w =
    {
      nodes = List.map (fun (id, (n, _)) -> (id, n)) boots;
      soup = [];
      ticks = 0;
      clock = 0.;
    }
  in
  let w =
    List.fold_left (fun w (id, (_, effects)) -> absorb w ~src:id effects) w boots
  in
  let cmds =
    List.init spec.n_commands (fun k ->
        let cmd = { Types.client = client_id; seq = k + 1; op = Printf.sprintf "w%d" (k + 1) } in
        List.map (fun m -> (client_id, m, Types.ClientReq cmd)) universe_mains)
    |> List.concat
  in
  add_soup w cmds

(* --- invariant ---------------------------------------------------------- *)

(* Agreement: any two mains that both consider an instance chosen hold the
   same entry there; plus each node's acceptor-local invariant. *)
let check_invariant w =
  let bad = ref None in
  let note why = if !bad = None then bad := Some why in
  List.iter
    (fun (id, n) ->
      if not (Acceptor.invariant n.State.acceptor) then
        note (Printf.sprintf "acceptor invariant broken on node %d" id))
    w.nodes;
  let mains = List.filter (fun (_, n) -> n.State.role_ = State.Main) w.nodes in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun ((ia, a), (ib, b)) ->
      let hi = min (Log.max_chosen a.State.log) (Log.max_chosen b.State.log) in
      for i = 0 to hi do
        match (Log.get a.State.log i, Log.get b.State.log i) with
        | Some ea, Some eb when ea <> eb ->
          note (Printf.sprintf "nodes %d and %d disagree at instance %d" ia ib i)
        | _ -> ()
      done)
    (pairs mains);
  !bad

(* --- transitions --------------------------------------------------------- *)

exception Conflict_found of string

let deliver w (src, dst, msg) =
  match List.assoc_opt dst w.nodes with
  | None -> None
  | Some node ->
    let node = State.clone node in
    (try
       let _, effects = Core.step node ~now:w.clock (Core.Deliver { src; msg }) in
       let effects = Core.end_burst node effects in
       Some (absorb (replace_node w dst node) ~src:dst effects)
     with Log.Conflict i ->
       raise (Conflict_found (Printf.sprintf "conflicting chosen entry at instance %d on node %d" i dst)))

let tick w (id, node) =
  if node.State.role_ <> State.Main then None
  else begin
    let node = State.clone node in
    let clock = w.clock +. tick_delta in
    let _, effects = Core.step node ~now:clock (Core.Timer { tag = "tick" }) in
    let effects = Core.end_burst node effects in
    let w = { (replace_node w id node) with clock; ticks = w.ticks + 1 } in
    Some (absorb w ~src:id effects)
  end

let successors spec w =
  let deliveries = List.filter_map (deliver w) w.soup in
  let ticks =
    if w.ticks >= spec.max_ticks then []
    else List.filter_map (tick w) w.nodes
  in
  deliveries @ ticks

(* --- search ---------------------------------------------------------------- *)

let key w =
  let buf = Buffer.create 1024 in
  List.iter (fun (_, n) -> Buffer.add_string buf (State.fingerprint n)) w.nodes;
  Buffer.add_string buf (Marshal.to_string (w.soup, w.ticks, w.clock) []);
  Buffer.contents buf

let check ?(max_states = 50_000) ?(spec = default_spec) () =
  let initial = initial_world spec in
  let seen = Hashtbl.create 65536 in
  let queue = Queue.create () in
  Hashtbl.replace seen (key initial) ();
  Queue.push (initial, 0) queue;
  let states = ref 0 in
  let max_depth = ref 0 in
  let violation = ref None in
  (try
     while (not (Queue.is_empty queue)) && !violation = None && !states < max_states do
       let w, depth = Queue.pop queue in
       incr states;
       if depth > !max_depth then max_depth := depth;
       match check_invariant w with
       | Some why -> violation := Some why
       | None ->
         List.iter
           (fun w' ->
             let k = key w' in
             if not (Hashtbl.mem seen k) then begin
               Hashtbl.replace seen k ();
               Queue.push (w', depth + 1) queue
             end)
           (successors spec w)
     done
   with Conflict_found why -> violation := Some why);
  { states = !states; violation = !violation; max_depth = !max_depth }
