(* Cross-node timeline reconstruction over merged per-node trace rings.

   Everything here is a pure function of a [Trace.record list] (typically
   {!Trace.merge} of every node's ring), so the same code serves the
   simulator, the UDP runtime's /timeline endpoint, the golden tests and
   the bench gates:

   - [by_trace] joins records across nodes by trace id into causal chains
     (ClientReq@client -> P2a@leader -> P2b@follower -> ... -> executed);
   - [duty_cycle] measures the fraction of a window in which a node
     processed anything at all — the paper's "auxiliaries do essentially
     nothing" claim as a number;
   - [engagement_windows] profiles each failover (crash -> aux engaged ->
     new leader elected -> aux quiescent) with message and byte counts per
     phase;
   - [to_chrome] exports Chrome trace-event JSON loadable in Perfetto
     (one process lane per node, one thread lane per trace id). *)

type record = Trace.record

let sort_records (records : record list) =
  List.stable_sort (fun (a : record) (b : record) -> Float.compare a.Trace.at b.Trace.at)
    records

(* ------------------------------------------------------------------ *)
(* Joining by trace id                                                 *)
(* ------------------------------------------------------------------ *)

let by_trace (records : record list) =
  let groups : (int, record list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : record) ->
      if r.Trace.tid <> 0 then
        match Hashtbl.find_opt groups r.Trace.tid with
        | Some cell -> cell := r :: !cell
        | None ->
          Hashtbl.add groups r.Trace.tid (ref [ r ]);
          order := r.Trace.tid :: !order)
    (sort_records records);
  List.rev_map (fun tid -> (tid, List.rev !(Hashtbl.find groups tid))) !order

let nodes_of group =
  List.sort_uniq compare (List.map (fun (r : record) -> r.Trace.node) group)

(* ------------------------------------------------------------------ *)
(* Duty cycle                                                          *)
(* ------------------------------------------------------------------ *)

(* Fraction of [bucket]-wide slots in [t0, t1) in which [node] has at least
   one record. With wall-clock records this approximates the fraction of
   time the node spent processing; with virtual-time records it is an event
   density. Either way a quiescent auxiliary scores ~0 and a busy main
   scores ~1, which is the comparison the paper's claim needs. *)
let duty_cycle ?(bucket = 1e-3) ~node ~t0 ~t1 (records : record list) =
  if t1 <= t0 || bucket <= 0. then 0.
  else begin
    let nbuckets = max 1 (int_of_float (Float.ceil ((t1 -. t0) /. bucket))) in
    let occupied = Hashtbl.create 64 in
    List.iter
      (fun (r : record) ->
        if r.Trace.node = node && r.Trace.at >= t0 && r.Trace.at < t1 then
          Hashtbl.replace occupied (int_of_float ((r.Trace.at -. t0) /. bucket)) ())
      records;
    float_of_int (Hashtbl.length occupied) /. float_of_int nbuckets
  end

(* ------------------------------------------------------------------ *)
(* Engagement windows                                                  *)
(* ------------------------------------------------------------------ *)

type engagement = {
  started_at : float;
      (* the crash / step-down that triggered the failover; equals
         [engaged_at] when the trace shows no preceding fault *)
  engaged_at : float; (* first Aux_engaged of the window *)
  engaged_instance : int; (* highest instance pushed to an auxiliary *)
  elected_at : float option; (* first Ballot_won at/after engagement *)
  quiesced_at : float option; (* Aux_quiesced closing the window *)
  msgs_engage : int; (* cluster-wide deliveries, engage -> elect *)
  bytes_engage : int;
  msgs_settle : int; (* cluster-wide deliveries, elect -> quiesce *)
  bytes_settle : int;
  aux_msgs : int; (* deliveries to auxiliaries across the whole window *)
  aux_bytes : int;
}

let engagement_windows ~auxes (records : record list) =
  let records = sort_records records in
  let last_at =
    List.fold_left (fun acc (r : record) -> Float.max acc r.Trace.at) 0. records
  in
  (* Pass 1: window boundaries. *)
  let windows = ref [] in
  let open_ = ref None in
  let last_fault = ref None in
  List.iter
    (fun (r : record) ->
      match r.Trace.ev with
      | Event.Crashed | Event.Stepped_down _ -> last_fault := Some r.Trace.at
      | Event.Aux_engaged { instance } -> begin
        match !open_ with
        | None ->
          let started_at =
            match !last_fault with Some at -> at | None -> r.Trace.at
          in
          open_ := Some (started_at, r.Trace.at, ref instance, ref None)
        | Some (_, _, inst, _) -> inst := max !inst instance
      end
      | Event.Ballot_won _ -> begin
        match !open_ with
        | Some (_, _, _, ({ contents = None } as elected)) ->
          elected := Some r.Trace.at
        | _ -> ()
      end
      | Event.Aux_quiesced _ -> begin
        match !open_ with
        | Some (started_at, engaged_at, inst, elected) ->
          windows := (started_at, engaged_at, !inst, !elected, Some r.Trace.at) :: !windows;
          open_ := None;
          last_fault := None
        | None -> ()
      end
      | _ -> ())
    records;
  (match !open_ with
  | Some (started_at, engaged_at, inst, elected) ->
    windows := (started_at, engaged_at, !inst, !elected, None) :: !windows
  | None -> ());
  (* Pass 2: per-phase traffic. *)
  let count lo hi ~only_aux =
    List.fold_left
      (fun (n, bytes) (r : record) ->
        match r.Trace.ev with
        | Event.Msg_recv { bytes = b; _ }
          when r.Trace.at >= lo && r.Trace.at < hi
               && ((not only_aux) || List.mem r.Trace.node auxes) ->
          (n + 1, bytes + b)
        | _ -> (n, bytes))
      (0, 0) records
  in
  List.rev_map
    (fun (started_at, engaged_at, engaged_instance, elected_at, quiesced_at) ->
      let close = match quiesced_at with Some q -> q | None -> last_at +. 1e-9 in
      let elect = match elected_at with Some e -> e | None -> close in
      let msgs_engage, bytes_engage = count engaged_at elect ~only_aux:false in
      let msgs_settle, bytes_settle = count elect close ~only_aux:false in
      let aux_msgs, aux_bytes = count engaged_at close ~only_aux:true in
      {
        started_at;
        engaged_at;
        engaged_instance;
        elected_at;
        quiesced_at;
        msgs_engage;
        bytes_engage;
        msgs_settle;
        bytes_settle;
        aux_msgs;
        aux_bytes;
      })
    !windows

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto)                                  *)
(* ------------------------------------------------------------------ *)

(* Microseconds with fixed sub-microsecond precision: deterministic text
   for the golden snapshot, enough resolution for simulated timestamps. *)
let ts at = Printf.sprintf "%.3f" (at *. 1e6)

let args_json ev =
  let fields = Event.fields ev in
  if fields = [] then ""
  else
    ",\"args\":{"
    ^ String.concat ","
        (List.map
           (fun (name, v) ->
             match v with
             | `I i -> Printf.sprintf "\"%s\":%d" (Trace.escape name) i
             | `S s -> Printf.sprintf "\"%s\":\"%s\"" (Trace.escape name) (Trace.escape s))
           fields)
    ^ "}"

let to_chrome (records : record list) =
  let records = sort_records records in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let add line =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n";
    Buffer.add_string b line
  in
  (* One instant event per record: process lane = node, thread lane = trace. *)
  List.iter
    (fun (r : record) ->
      add
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"s\":\"t\"%s}"
           (Trace.escape (Event.kind r.Trace.ev))
           (ts r.Trace.at) r.Trace.node r.Trace.tid (args_json r.Trace.ev)))
    records;
  (* One async begin/end pair per causal chain, so Perfetto draws each
     instance/command as a horizontal span. *)
  List.iter
    (fun (tid, group) ->
      match group with
      | [] -> ()
      | (first_r : record) :: _ ->
        let last_r = List.nth group (List.length group - 1) in
        let label =
          Printf.sprintf "trace %x (n%d, %d events, %d nodes)" tid
            (Traceid.origin_of tid) (List.length group)
            (List.length (nodes_of group))
        in
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"trace\",\"ph\":\"b\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
             (Trace.escape label) tid (ts first_r.Trace.at) first_r.Trace.node tid);
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"trace\",\"ph\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
             (Trace.escape label) tid (ts last_r.Trace.at) last_r.Trace.node tid))
    (by_trace records);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
