(* Prebuilt handles on a transport endpoint's per-message counters, shared
   by the ring fabric ({!Ring}) and the UDP node ({!Cp_netio.Node}): each
   send or delivery bumps cells resolved once, never a counter name built
   with [^] and looked up by string. Names and values are exactly those of
   the string path ({!Cp_sim.Metrics.counter}). *)

module Metrics = Cp_sim.Metrics
module Types = Cp_proto.Types

type t = {
  msgs_sent : Metrics.counter;
  bytes_sent : Metrics.counter;
  encoded_bytes : Metrics.counter;
  msgs_recv : Metrics.counter;
  bytes_recv : Metrics.counter;
  sent : Metrics.counter array; (* "sent.<kind>", by {!Types.kind_index} *)
  recv : Metrics.counter array; (* "recv.<kind>" *)
}

let sent_names = Array.map (fun kind -> "sent." ^ kind) Types.kinds

let recv_names = Array.map (fun kind -> "recv." ^ kind) Types.kinds

let create m =
  let c = Metrics.counter m in
  {
    msgs_sent = c "msgs_sent";
    bytes_sent = c "bytes_sent";
    encoded_bytes = c "encoded_bytes";
    msgs_recv = c "msgs_recv";
    bytes_recv = c "bytes_recv";
    sent = Array.map c sent_names;
    recv = Array.map c recv_names;
  }

let sent t msg =
  Metrics.bump t.msgs_sent;
  Metrics.bump (Array.unsafe_get t.sent (Types.kind_index msg))

let encoded t len =
  Metrics.add t.bytes_sent len;
  Metrics.add t.encoded_bytes len

let received t ~kind ~bytes =
  Metrics.bump t.msgs_recv;
  Metrics.add t.bytes_recv bytes;
  Metrics.bump (Array.unsafe_get t.recv kind)
