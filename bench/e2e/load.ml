(* The operations every workload issues, made from the seed alone: PUTs of
   64-byte values (or, at [read_ratio], GETs) over 1024 uniform keys. A
   value names its key, so a GET's answer can be checked. *)

let keys = 1024

let value_bytes = 64

let value ~key ~client ~seq =
  let s = Printf.sprintf "%s=%d.%d." key client seq in
  s ^ String.make (max 0 (value_bytes - String.length s)) 'v'

(* Operation [seq] of [client]: a pure function of its arguments. *)
let op ~seed ~client ~read_ratio seq =
  let rng = Cp_util.Rng.create ((seed * 1_000_003) + (client * 7919) + seq) in
  let key = Printf.sprintf "k%d" (Cp_util.Rng.int rng keys) in
  if read_ratio > 0. && Cp_util.Rng.bool rng read_ratio then Cp_smr.Kv.get key
  else Cp_smr.Kv.put key (value ~key ~client ~seq)

let is_read op = Cp_smr.Kv.read_only op

(* A PUT is answered OK; a GET with NONE or a value written to its key. *)
let valid ~op ~result =
  match String.split_on_char ' ' op with
  | [ "PUT"; _; _ ] -> result = "OK"
  | [ "GET"; key ] ->
    result = "NONE"
    || String.length result > String.length key
       && String.sub result 0 (String.length key + 1) = key ^ "="
  | _ -> false
