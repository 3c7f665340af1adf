(* Model: 3 acceptors (mains 0,1; auxiliary 2). Initial config C0 with
   majority quorums over {0,1,2}. If `Reconfig (encoded as entry 0) is
   chosen at instance 0, instance 1's configuration is C1 with the single
   acceptor {0} (main 1 removed; the auxiliary deactivates — the f=1 shape
   of Config.remove_main). Entries are ints: 0 = Reconfig, others = values.

   Message-soup semantics as in Mc: the soup only grows; every interleaving
   of receipts is explored; loss = never reacting. Vote histories make
   chosen-ness stable. *)

type discipline = [ `Derived_config | `Assumed_config ]

type spec = {
  proposals : ([ `Reconfig | `Value of int ] * int) list;
  discipline : discipline;
}

let n_acceptors = 3

let c0_quorums = [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]

let c1_quorums = [ [ 0 ] ]

let reconfig_entry = 0

let entry_of = function `Reconfig -> reconfig_entry | `Value v -> v

(* --- state --------------------------------------------------------------- *)

type msg =
  | MP1a of int (* ballot *)
  | MP1b of int * int * (int * int) option * (int * int) option
    (* acceptor, ballot, highest vote at instance 0 and 1 *)
  | MP2a of int * int * int (* ballot, instance, entry *)

type phase =
  | PInit
  | PWait (* phase 1 sent *)
  | PActive of { promises : int list; proposed0 : bool; proposed1 : bool }

type state = {
  promised : int array;
  hist : (int * int) list array array; (* [instance].(acceptor) = (ballot, entry) list *)
  phases : phase array;
  soup : msg list;
}

let clone st =
  {
    promised = Array.copy st.promised;
    hist = Array.map Array.copy st.hist;
    phases = Array.copy st.phases;
    soup = st.soup;
  }

let add_msg st m = { st with soup = List.sort_uniq compare (m :: st.soup) }

let key st = Marshal.to_string st []

(* --- chosen-ness ----------------------------------------------------------- *)

let chosen_at st ~instance ~quorums =
  let hist = st.hist.(instance) in
  let pairs =
    Array.to_list hist |> List.concat |> List.sort_uniq compare
  in
  List.filter
    (fun (b, e) ->
      List.exists
        (fun q -> List.for_all (fun a -> List.mem (b, e) hist.(a)) q)
        quorums)
    pairs

let chosen0 st = chosen_at st ~instance:0 ~quorums:c0_quorums

let config1_quorums_for entry = if entry = reconfig_entry then c1_quorums else c0_quorums

let check_invariant st =
  let c0 = List.sort_uniq compare (List.map snd (chosen0 st)) in
  match c0 with
  | v1 :: v2 :: _ when v1 <> v2 ->
    Some (Printf.sprintf "instance 0: two values chosen (%d, %d)" v1 v2)
  | [ v0 ] -> begin
    let quorums = config1_quorums_for v0 in
    let c1 = List.sort_uniq compare (List.map snd (chosen_at st ~instance:1 ~quorums)) in
    match c1 with
    | w1 :: w2 :: _ when w1 <> w2 ->
      Some (Printf.sprintf "instance 1: two values chosen (%d, %d)" w1 w2)
    | _ -> None
  end
  | _ -> begin
    (* Nothing chosen at instance 0 yet: no value may already be chosen at
       instance 1 under either candidate configuration. *)
    let any =
      chosen_at st ~instance:1 ~quorums:c0_quorums
      @ chosen_at st ~instance:1 ~quorums:c1_quorums
    in
    match any with
    | (_, v) :: _ ->
      Some (Printf.sprintf "instance 1 decided (%d) before instance 0 was chosen" v)
    | [] -> None
  end

(* --- transitions ----------------------------------------------------------- *)

let highest vote_a vote_b =
  match (vote_a, vote_b) with
  | None, v | v, None -> v
  | Some (b1, _), Some (b2, _) -> if b1 >= b2 then vote_a else vote_b

let highest_vote st ~instance a =
  List.fold_left
    (fun acc (b, e) -> highest acc (Some (b, e)))
    None st.hist.(instance).(a)

(* Best vote at [instance] among P1b messages for ballot [b] from the given
   responders. *)
let promise_vote st ~ballot ~instance responders =
  List.fold_left
    (fun acc m ->
      match (m, instance) with
      | MP1b (a, b, v0, _), 0 when b = ballot && List.mem a responders -> highest acc v0
      | MP1b (a, b, _, v1), 1 when b = ballot && List.mem a responders -> highest acc v1
      | _ -> acc)
    None st.soup

let responders_for st ~ballot =
  List.filter_map
    (function MP1b (a, b, _, _) when b = ballot -> Some a | _ -> None)
    st.soup
  |> List.sort_uniq compare

let successors spec st =
  let succs = ref [] in
  let emit s = succs := s :: !succs in
  let nprop = List.length spec.proposals in
  (* Proposer starts. *)
  for p = 0 to nprop - 1 do
    match st.phases.(p) with
    | PInit ->
      let st' = clone st in
      st'.phases.(p) <- PWait;
      emit (add_msg st' (MP1a p))
    | PWait | PActive _ -> ()
  done;
  (* Acceptor promises. *)
  List.iter
    (function
      | MP1a b ->
        for a = 0 to n_acceptors - 1 do
          if b > st.promised.(a) then begin
            let st' = clone st in
            st'.promised.(a) <- b;
            emit
              (add_msg st'
                 (MP1b (a, b, highest_vote st ~instance:0 a, highest_vote st ~instance:1 a)))
          end
        done
      | MP1b _ | MP2a _ -> ())
    st.soup;
  (* Proposer completes phase 1 (with any quorum of C0 present). *)
  for p = 0 to nprop - 1 do
    match st.phases.(p) with
    | PWait ->
      let resp = responders_for st ~ballot:p in
      if List.exists (fun q -> List.for_all (fun a -> List.mem a resp) q) c0_quorums
      then begin
        let st' = clone st in
        st'.phases.(p) <- PActive { promises = resp; proposed0 = false; proposed1 = false };
        emit st'
      end
    | PInit | PActive _ -> ()
  done;
  (* Proposer absorbs a later promise (extends coverage / vote knowledge). *)
  for p = 0 to nprop - 1 do
    match st.phases.(p) with
    | PActive ({ promises; _ } as act) ->
      let resp = responders_for st ~ballot:p in
      let fresh = List.filter (fun a -> not (List.mem a promises)) resp in
      List.iter
        (fun a ->
          let st' = clone st in
          st'.phases.(p) <-
            PActive { act with promises = List.sort_uniq compare (a :: promises) };
          emit st')
        fresh
    | PInit | PWait -> ()
  done;
  (* Proposer proposes at instance 0. *)
  List.iteri
    (fun p (v0, _) ->
      match st.phases.(p) with
      | PActive ({ promises; proposed0 = false; _ } as act) ->
        let e0 =
          match promise_vote st ~ballot:p ~instance:0 promises with
          | Some (_, e) -> e
          | None -> entry_of v0
        in
        let st' = clone st in
        st'.phases.(p) <- PActive { act with proposed0 = true };
        emit (add_msg st' (MP2a (p, 0, e0)))
      | PInit | PWait | PActive _ -> ())
    spec.proposals;
  (* Proposer proposes at instance 1 — the rule under test. *)
  List.iteri
    (fun p (v0, v1) ->
      match st.phases.(p) with
      | PActive ({ promises; proposed1 = false; _ } as act) ->
        let attempt quorums =
          (* Coverage: promises must contain a quorum of instance 1's
             configuration (only enforced by the correct discipline). *)
          let covered =
            List.exists (fun q -> List.for_all (fun a -> List.mem a promises) q) quorums
          in
          if covered || spec.discipline = `Assumed_config then begin
            let e1 =
              match promise_vote st ~ballot:p ~instance:1 promises with
              | Some (_, e) -> e
              | None -> v1
            in
            let st' = clone st in
            st'.phases.(p) <- PActive { act with proposed1 = true };
            emit (add_msg st' (MP2a (p, 1, e1)))
          end
        in
        (match spec.discipline with
        | `Derived_config -> begin
          match List.sort_uniq compare (List.map snd (chosen0 st)) with
          | [ e0 ] -> attempt (config1_quorums_for e0)
          | _ -> () (* instance 0 undecided: must wait *)
        end
        | `Assumed_config ->
          (* Assume one's own instance-0 proposal succeeded. *)
          let assumed =
            match st.phases.(p) with
            | PActive { proposed0 = true; _ } -> entry_of v0
            | _ -> entry_of v0
          in
          attempt (config1_quorums_for assumed))
      | PInit | PWait | PActive _ -> ())
    spec.proposals;
  (* Acceptor votes. *)
  List.iter
    (function
      | MP2a (b, i, e) ->
        for a = 0 to n_acceptors - 1 do
          if b >= st.promised.(a) && not (List.mem (b, e) st.hist.(i).(a)) then begin
            let st' = clone st in
            st'.promised.(a) <- b;
            st'.hist.(i).(a) <- List.sort_uniq compare ((b, e) :: st.hist.(i).(a));
            emit st'
          end
        done
      | MP1a _ | MP1b _ -> ())
    st.soup;
  !succs

(* --- search ------------------------------------------------------------------ *)

type result = {
  states : int;
  violation : string option;
  max_depth : int;
}

let check ?(max_states = 4_000_000) spec =
  let initial =
    {
      promised = Array.make n_acceptors (-1);
      hist = [| Array.make n_acceptors []; Array.make n_acceptors [] |];
      phases = Array.make (List.length spec.proposals) PInit;
      soup = [];
    }
  in
  let seen = Hashtbl.create 65536 in
  let queue = Queue.create () in
  Hashtbl.replace seen (key initial) ();
  Queue.push (initial, 0) queue;
  let states = ref 0 in
  let max_depth = ref 0 in
  let violation = ref None in
  while (not (Queue.is_empty queue)) && !violation = None && !states < max_states do
    let st, depth = Queue.pop queue in
    incr states;
    if depth > !max_depth then max_depth := depth;
    match check_invariant st with
    | Some why -> violation := Some why
    | None ->
      List.iter
        (fun st' ->
          let k = key st' in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            Queue.push (st', depth + 1) queue
          end)
        (successors spec st)
  done;
  { states = !states; violation = !violation; max_depth = !max_depth }
