(* The benchmark's tracer. It sits outside the program: every span is taken
   around a public call into a layer, by wrapping what the runtime hands
   the replica (the [Engine.ctx] send, the returned [Engine.handlers]), the
   [Storage.S] store passed through [?storage], and the state machine
   module. Spans live in memory in one process-global recorder and are
   written out when the run ends.

   Recording is off until [enable]; switched off, a wrapper costs one
   branch. Times come from CLOCK_MONOTONIC, which every process on the host
   shares, so spans recorded by different processes can be joined. *)

module Types = Cp_proto.Types
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Fixed-width int records in one growable array (no per-record boxes). *)
module Recs = struct
  type t = { width : int; mutable a : int array; mutable n : int }

  let create width = { width; a = Array.make (width * 1024) 0; n = 0 }

  let length t = t.n

  let get t i f = t.a.((i * t.width) + f)

  let clear t = t.n <- 0

  let slot t =
    let base = t.n * t.width in
    if base + t.width > Array.length t.a then begin
      let a = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 a 0 (Array.length t.a);
      t.a <- a
    end;
    t.n <- t.n + 1;
    base

  let push8 t x0 x1 x2 x3 x4 x5 x6 x7 =
    let b = slot t in
    let a = t.a in
    a.(b) <- x0;
    a.(b + 1) <- x1;
    a.(b + 2) <- x2;
    a.(b + 3) <- x3;
    a.(b + 4) <- x4;
    a.(b + 5) <- x5;
    a.(b + 6) <- x6;
    a.(b + 7) <- x7

  let append dst src =
    for i = 0 to src.n - 1 do
      let b = slot dst in
      Array.blit src.a (i * src.width) dst.a b dst.width
    done

  let iter_lines t f =
    for i = 0 to t.n - 1 do
      f (String.concat " " (List.init t.width (fun j -> string_of_int (get t i j))))
    done

  let add_line t line =
    let b = slot t in
    List.iteri (fun j s -> t.a.(b + j) <- int_of_string s) (String.split_on_char ' ' line)
end

(* Message kinds the join follows; everything else is [k_other]. *)
let k_other = 0

let k_req = 1

let k_read = 2

let k_p2a = 3

let k_p2b = 4

let k_resp = 5

(* Handler record fields. *)
let h_node = 0

let h_hid = 1

let h_t0 = 2

let h_t1 = 3

let h_child = 4

let h_kind = 5

let h_k1 = 6

let h_k2 = 7

(* Send record fields. *)
let s_node = 0

let s_hid = 1

let s_t = 2

let s_kind = 3

let s_dst = 4

let s_k1 = 5

let s_k2 = 6

let s_k3 = 7

type t = {
  mutable on : bool;
  mutable hid : int; (* handler running now; -1 outside handlers *)
  mutable child : int; (* ns spent in child spans of that handler *)
  mutable next_hid : int;
  handlers : Recs.t; (* node hid t0 t1 child kind k1 k2 *)
  sends : Recs.t; (* node hid t kind dst k1 k2 k3 *)
  put : Hist.t;
  flush : Hist.t;
  apply : Hist.t;
  send : Hist.t;
  (* Ring slices: wall time, and the handler time and gaps inside them. *)
  mutable slice_ns : int;
  mutable in_slice_ns : int;
  mutable gap_ns : int;
  mutable last_end : int; (* end of the last handler in this slice; -1 outside *)
}

let g =
  {
    on = false;
    hid = -1;
    child = 0;
    next_hid = 0;
    handlers = Recs.create 8;
    sends = Recs.create 8;
    put = Hist.create ();
    flush = Hist.create ();
    apply = Hist.create ();
    send = Hist.create ();
    slice_ns = 0;
    in_slice_ns = 0;
    gap_ns = 0;
    last_end = -1;
  }

let enable () = g.on <- true

let disable () = g.on <- false

let reset () =
  Recs.clear g.handlers;
  Recs.clear g.sends;
  List.iter Hist.clear [ g.put; g.flush; g.apply; g.send ];
  g.slice_ns <- 0;
  g.in_slice_ns <- 0;
  g.gap_ns <- 0;
  g.last_end <- -1

(* A child span of the running handler: charged to [hist] and to the
   handler's child time, so its self time excludes it. *)
let child hist f =
  let t0 = now_ns () in
  let r = f () in
  let d = now_ns () - t0 in
  g.child <- g.child + d;
  Hist.add hist d;
  r

let record_send ~node ~t ~dst (msg : Types.msg) =
  let push kind k1 k2 k3 = Recs.push8 g.sends node g.hid t kind dst k1 k2 k3 in
  match msg with
  | Types.P2a { instance; entry = Types.App c; _ } -> push k_p2a instance c.Types.client c.Types.seq
  | Types.P2a { instance; entry = Types.Batch cs; _ } ->
    List.iter (fun c -> push k_p2a instance c.Types.client c.Types.seq) cs
  | Types.ClientResp { client; seq; _ } -> push k_resp client seq 0
  | Types.ClientReq c -> push k_req c.Types.client c.Types.seq 0
  | Types.ClientRead c -> push k_read c.Types.client c.Types.seq 0
  | _ -> ()

let input_key ~src (msg : Types.msg) =
  match msg with
  | Types.ClientReq c -> (k_req, c.Types.client, c.Types.seq)
  | Types.ClientRead c -> (k_read, c.Types.client, c.Types.seq)
  | Types.P2a { instance; _ } -> (k_p2a, instance, src)
  | Types.P2b { instance; from; _ } -> (k_p2b, instance, from)
  | Types.ClientResp { client; seq; _ } -> (k_resp, client, seq)
  | _ -> (k_other, 0, 0)

(* The capability record handed to [build], with [send] timed. *)
let wrap_ctx ~node (ctx : Types.msg Engine.ctx) =
  let send dst msg =
    if not g.on then ctx.Engine.send dst msg
    else begin
      let t = now_ns () in
      child g.send (fun () -> ctx.Engine.send dst msg);
      record_send ~node ~t ~dst msg
    end
  in
  { ctx with Engine.send }

let span ~node ~kind ~k1 ~k2 f =
  let hid = g.next_hid in
  g.next_hid <- hid + 1;
  let saved_hid = g.hid and saved_child = g.child in
  g.hid <- hid;
  g.child <- 0;
  let t0 = now_ns () in
  if g.last_end >= 0 then g.gap_ns <- g.gap_ns + (t0 - g.last_end);
  let finish () =
    let t1 = now_ns () in
    Recs.push8 g.handlers node hid t0 t1 g.child kind k1 k2;
    if g.last_end >= 0 then begin
      g.in_slice_ns <- g.in_slice_ns + (t1 - t0);
      g.last_end <- t1
    end;
    g.hid <- saved_hid;
    g.child <- saved_child
  in
  match f () with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e

(* The handlers [build] returns, each invocation recorded as one span. *)
let wrap_handlers ~node (h : Types.msg Engine.handlers) =
  let on_message ~src msg =
    if not g.on then h.Engine.on_message ~src msg
    else
      let kind, k1, k2 = input_key ~src msg in
      span ~node ~kind ~k1 ~k2 (fun () -> h.Engine.on_message ~src msg)
  in
  let on_timer ~tid ~tag =
    if not g.on then h.Engine.on_timer ~tid ~tag
    else span ~node ~kind:k_other ~k1:0 ~k2:0 (fun () -> h.Engine.on_timer ~tid ~tag)
  in
  { Engine.on_message; on_timer }

(* One [Ring.run] slice: its wall time, and (through [span]) the handler
   time and the gaps between handlers inside it. *)
let slice f =
  if not g.on then f ()
  else begin
    let t0 = now_ns () in
    g.last_end <- t0;
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        g.gap_ns <- g.gap_ns + (t1 - g.last_end);
        g.slice_ns <- g.slice_ns + (t1 - t0);
        g.last_end <- -1)
      f
  end

(* A timing [Storage.S] around any store. [on_put] sees every write, timed
   or not (the node uses it to digest its chosen log). *)
module Timed_store = struct
  type t = { inner : Storage.t; on_put : string -> string -> unit }

  let backend t = Storage.backend t.inner

  let put t k v =
    t.on_put k v;
    if g.on then child g.put (fun () -> Storage.put t.inner k v) else Storage.put t.inner k v

  let get t k = Storage.get t.inner k

  let remove t k = Storage.remove t.inner k

  let mem t k = Storage.mem t.inner k

  let keys t = Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let flush t = if g.on then child g.flush (fun () -> Storage.flush t.inner) else Storage.flush t.inner

  let wipe t = Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

let timed_store ?(on_put = fun _ _ -> ()) inner =
  Storage.Packed ((module Timed_store), { Timed_store.inner; on_put })

(* The replicated KV store with [apply] timed. *)
module Timed_kv = struct
  include Cp_smr.Kv

  let apply s op = if g.on then child g.apply (fun () -> Cp_smr.Kv.apply s op) else Cp_smr.Kv.apply s op
end
