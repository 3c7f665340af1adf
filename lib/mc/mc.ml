(* Message-soup semantics: sent messages accumulate in a monotone set; a
   step is an agent reacting to a present message (or a proposer starting).
   Because the soup never shrinks, loss is "never reacting" (explored, since
   reacting is optional along some path), reordering is free, and duplicate
   delivery is harmless by idempotence of the transitions. *)

type spec = {
  n_acceptors : int;
  quorums : int list list;
  proposals : (int * int) list;
}

let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
    if k = 0 then [ [] ]
    else
      List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
      @ subsets_of_size k rest

let majorities ~n =
  let ids = List.init n Fun.id in
  subsets_of_size ((n / 2) + 1) ids

let cheap_quorums ~f =
  let n = (2 * f) + 1 in
  let mains = List.init (f + 1) Fun.id in
  let all = majorities ~n in
  (* The mains-only quorum is itself a majority; dedupe keeps the list tidy. *)
  List.sort_uniq compare (mains :: all)

(* --- state ------------------------------------------------------------- *)

type msg =
  | MP1a of int (* ballot *)
  | MP1b of int * int * (int * int) option (* acceptor, ballot, its vote then *)
  | MP2a of int * int (* ballot, value *)
  | MP2b of int * int (* acceptor, ballot *)

type phase =
  | PInit
  | PP1
  | PP2 of int (* value being proposed *)
  | PDone of int

type state = {
  promised : int array; (* per acceptor; -1 = none *)
  histories : (int * int) list array; (* per acceptor: (ballot, value) ever voted, sorted *)
  phases : phase array; (* per proposer *)
  soup : msg list; (* sorted, deduplicated *)
}

let clone st =
  {
    promised = Array.copy st.promised;
    histories = Array.copy st.histories;
    phases = Array.copy st.phases;
    soup = st.soup;
  }

let add_msg st m = { st with soup = List.sort_uniq compare (m :: st.soup) }

let key st = Marshal.to_string st []

(* --- invariant ---------------------------------------------------------- *)

(* v is chosen at ballot b if some quorum's histories all contain (b, v). *)
let chosen_values spec st =
  let ballots = List.map fst spec.proposals in
  List.concat_map
    (fun b ->
      List.filter_map
        (fun q ->
          let votes_at_b =
            List.map
              (fun a ->
                List.find_opt (fun (b', _) -> b' = b) st.histories.(a))
              q
          in
          match votes_at_b with
          | [] -> None
          | first :: rest ->
            if
              first <> None
              && List.for_all (fun v -> v <> None && v = first) rest
            then Option.map snd first
            else None)
        spec.quorums
      |> List.map (fun v -> (b, v)))
    ballots

let check_invariant spec st =
  let chosen = chosen_values spec st in
  let values = List.sort_uniq compare (List.map snd chosen) in
  match values with
  | [] | [ _ ] -> begin
    (* Decided proposers must agree with the chosen value(s). *)
    let decided =
      Array.to_list st.phases
      |> List.filter_map (function PDone v -> Some v | _ -> None)
      |> List.sort_uniq compare
    in
    match (values, decided) with
    | _, [] -> None
    | [], _ :: _ -> Some "proposer decided but nothing is chosen"
    | [ v ], ds ->
      if List.for_all (fun d -> d = v) ds then None
      else Some (Printf.sprintf "decided %d but chosen %d" (List.hd ds) v)
    | _ -> None
  end
  | v1 :: v2 :: _ ->
    Some (Printf.sprintf "two values chosen: %d and %d" v1 v2)

(* --- transitions --------------------------------------------------------- *)

let proposer_ballot spec p = fst (List.nth spec.proposals p)

let proposer_value spec p = snd (List.nth spec.proposals p)

let successors spec st =
  let succs = ref [] in
  let emit s = succs := s :: !succs in
  (* Proposer starts phase 1. *)
  List.iteri
    (fun p _ ->
      match st.phases.(p) with
      | PInit ->
        let st' = clone st in
        st'.phases.(p) <- PP1;
        emit (add_msg st' (MP1a (proposer_ballot spec p)))
      | PP1 | PP2 _ | PDone _ -> ())
    spec.proposals;
  (* Acceptor handles a P1a. *)
  List.iter
    (function
      | MP1a b ->
        for a = 0 to spec.n_acceptors - 1 do
          if b > st.promised.(a) then begin
            let st' = clone st in
            st'.promised.(a) <- b;
            let vote =
              (* highest-ballot vote in the history *)
              List.fold_left
                (fun acc (b', v') ->
                  match acc with
                  | Some (bb, _) when bb >= b' -> acc
                  | _ -> Some (b', v'))
                None st.histories.(a)
            in
            emit (add_msg st' (MP1b (a, b, vote)))
          end
        done
      | MP1b _ | MP2a _ | MP2b _ -> ())
    st.soup;
  (* Proposer completes phase 1 using any quorum of present promises. *)
  List.iteri
    (fun p _ ->
      match st.phases.(p) with
      | PP1 ->
        let b = proposer_ballot spec p in
        List.iter
          (fun q ->
            let promises =
              List.map
                (fun a ->
                  List.find_map
                    (function
                      | MP1b (a', b', vote) when a' = a && b' = b -> Some vote
                      | _ -> None)
                    st.soup)
                q
            in
            if List.for_all (fun x -> x <> None) promises then begin
              let best =
                List.fold_left
                  (fun acc vote ->
                    match (acc, Option.get vote) with
                    | acc, None -> acc
                    | Some (bb, _), Some (b', _) when bb >= b' -> acc
                    | _, Some (b', v') -> Some (b', v'))
                  None promises
              in
              let v =
                match best with Some (_, v) -> v | None -> proposer_value spec p
              in
              let st' = clone st in
              st'.phases.(p) <- PP2 v;
              emit (add_msg st' (MP2a (b, v)))
            end)
          spec.quorums
      | PInit | PP2 _ | PDone _ -> ())
    spec.proposals;
  (* Acceptor handles a P2a. *)
  List.iter
    (function
      | MP2a (b, v) ->
        for a = 0 to spec.n_acceptors - 1 do
          if b >= st.promised.(a) && not (List.mem (b, v) st.histories.(a)) then begin
            let st' = clone st in
            st'.promised.(a) <- b;
            st'.histories.(a) <- List.sort_uniq compare ((b, v) :: st.histories.(a));
            emit (add_msg st' (MP2b (a, b)))
          end
        done
      | MP1a _ | MP1b _ | MP2b _ -> ())
    st.soup;
  (* Proposer decides on a quorum of 2b acks. *)
  List.iteri
    (fun p _ ->
      match st.phases.(p) with
      | PP2 v ->
        let b = proposer_ballot spec p in
        let acked a = List.mem (MP2b (a, b)) st.soup in
        if List.exists (fun q -> List.for_all acked q) spec.quorums then begin
          let st' = clone st in
          st'.phases.(p) <- PDone v;
          emit st'
        end
      | PInit | PP1 | PDone _ -> ())
    spec.proposals;
  !succs

(* --- search ---------------------------------------------------------------- *)

type result = {
  states : int;
  violation : string option;
  max_depth : int;
}

let check ?(max_states = 2_000_000) spec =
  (match
     List.length (List.sort_uniq compare (List.map fst spec.proposals))
     = List.length spec.proposals
   with
  | true -> ()
  | false -> invalid_arg "Mc.check: ballots must be distinct");
  let initial =
    {
      promised = Array.make spec.n_acceptors (-1);
      histories = Array.make spec.n_acceptors [];
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
    match check_invariant spec st with
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
