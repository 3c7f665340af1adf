type change =
  | Remove_main of int
  | Add_main of int

type t =
  | Ballot_started of { round : int; leader : int; low : int }
  | Ballot_won of { round : int; leader : int }
  | Stepped_down of { round : int; leader : int }
  | Leader_changed of { leader : int }
  | Phase2_widened of { instance : int }
  | Aux_engaged of { instance : int }
  | Aux_quiesced of { floor : int }
  | Reconfig_proposed of change
  | Reconfig_committed of { change : change; at : int }
  | Command_submitted of { client : int; seq : int }
  | Command_chosen of { instance : int; batch : int }
  | Command_executed of { instance : int }
  | Lease_acquired of { round : int }
  | Lease_lost of { reason : string }
  | Lease_read_served of { client : int; seq : int; upto : int }
  | Msg_recv of { src : int; kind : string; bytes : int }
  | Crashed
  | Restarted
  | Debug of string

let kind = function
  | Ballot_started _ -> "ballot_started"
  | Ballot_won _ -> "ballot_won"
  | Stepped_down _ -> "stepped_down"
  | Leader_changed _ -> "leader_changed"
  | Phase2_widened _ -> "phase2_widened"
  | Aux_engaged _ -> "aux_engaged"
  | Aux_quiesced _ -> "aux_quiesced"
  | Reconfig_proposed _ -> "reconfig_proposed"
  | Reconfig_committed _ -> "reconfig_committed"
  | Command_submitted _ -> "command_submitted"
  | Command_chosen _ -> "command_chosen"
  | Command_executed _ -> "command_executed"
  | Lease_acquired _ -> "lease_acquired"
  | Lease_lost _ -> "lease_lost"
  | Lease_read_served _ -> "lease_read_served"
  | Msg_recv _ -> "msg_recv"
  | Crashed -> "crashed"
  | Restarted -> "restarted"
  | Debug _ -> "debug"

let change_fields = function
  | Remove_main m -> [ ("change", `S "remove_main"); ("main", `I m) ]
  | Add_main m -> [ ("change", `S "add_main"); ("main", `I m) ]

(* Flat field list; the JSONL encoder in {!Trace} relies on every event
   being representable as string/int fields plus its [kind]. *)
let fields = function
  | Ballot_started { round; leader; low } ->
    [ ("round", `I round); ("leader", `I leader); ("low", `I low) ]
  | Ballot_won { round; leader } -> [ ("round", `I round); ("leader", `I leader) ]
  | Stepped_down { round; leader } -> [ ("round", `I round); ("leader", `I leader) ]
  | Leader_changed { leader } -> [ ("leader", `I leader) ]
  | Phase2_widened { instance } -> [ ("instance", `I instance) ]
  | Aux_engaged { instance } -> [ ("instance", `I instance) ]
  | Aux_quiesced { floor } -> [ ("floor", `I floor) ]
  | Reconfig_proposed c -> change_fields c
  (* The wire name is "instance", not "at": the JSONL encoder reserves the
     top-level keys "at"/"node"/"event" for the record envelope. *)
  | Reconfig_committed { change; at } -> change_fields change @ [ ("instance", `I at) ]
  | Command_submitted { client; seq } -> [ ("client", `I client); ("seq", `I seq) ]
  | Command_chosen { instance; batch } ->
    [ ("instance", `I instance); ("batch", `I batch) ]
  | Command_executed { instance } -> [ ("instance", `I instance) ]
  | Lease_acquired { round } -> [ ("round", `I round) ]
  | Lease_lost { reason } -> [ ("reason", `S reason) ]
  | Lease_read_served { client; seq; upto } ->
    [ ("client", `I client); ("seq", `I seq); ("upto", `I upto) ]
  | Msg_recv { src; kind; bytes } ->
    [ ("src", `I src); ("kind", `S kind); ("bytes", `I bytes) ]
  | Crashed | Restarted -> []
  | Debug line -> [ ("line", `S line) ]

let pp_change ppf = function
  | Remove_main m -> Format.fprintf ppf "remove_main(%d)" m
  | Add_main m -> Format.fprintf ppf "add_main(%d)" m

let pp ppf ev =
  match ev with
  | Debug line -> Format.pp_print_string ppf line
  | Reconfig_proposed c -> Format.fprintf ppf "reconfig_proposed %a" pp_change c
  | Reconfig_committed { change; at } ->
    Format.fprintf ppf "reconfig_committed %a at=%d" pp_change change at
  | ev ->
    Format.pp_print_string ppf (kind ev);
    List.iter
      (fun (name, v) ->
        match v with
        | `I i -> Format.fprintf ppf " %s=%d" name i
        | `S s -> Format.fprintf ppf " %s=%s" name s)
      (fields ev)
