(* Pipeline profiler: per-stage wall-time accounting for the runtime loop.

   Each [time t stage f] charges the duration of [f] to [stage] as a pair
   of counters through the [count] sink — ["prof.<stage>.ns"] (summed
   nanoseconds) and ["prof.<stage>.n"] (samples) — so stage summaries ride
   the existing counter plumbing ({!Cp_sim.Metrics}, {!Prom.render}) with
   O(1) memory, unlike observation series which retain every sample.

   The clock is injected: the UDP runtime passes wall time, the simulator
   passes virtual time (where handler durations are 0 by construction, so
   sim profiles degenerate to per-stage call counts — still useful, and
   deterministic). *)

type t = {
  clock : unit -> float;
  count : string -> int -> unit; (* counter sink: (name, increment) *)
}

type stage = { ns_name : string; n_name : string }

let stage name = { ns_name = "prof." ^ name ^ ".ns"; n_name = "prof." ^ name ^ ".n" }

let create ~clock ~count = { clock; count }

let record t stage ~ns =
  t.count stage.ns_name ns;
  t.count stage.n_name 1

let time t stage f =
  let t0 = t.clock () in
  let r = f () in
  let dt = t.clock () -. t0 in
  record t stage ~ns:(int_of_float (dt *. 1e9));
  r

(* "prof.step.ns"/"prof.step.n" -> (stage, n, ns) rows, stage-sorted. *)
let summarize counters =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ "prof"; stage; field ] ->
        let n, ns = try Hashtbl.find tbl stage with Not_found -> (0, 0) in
        (match field with
        | "n" -> Hashtbl.replace tbl stage (v, ns)
        | "ns" -> Hashtbl.replace tbl stage (n, v)
        | _ -> ())
      | _ -> ())
    counters;
  Hashtbl.fold (fun stage (n, ns) acc -> (stage, n, ns) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let render counters =
  let rows = summarize counters in
  if rows = [] then ""
  else begin
    let b = Buffer.create 256 in
    Buffer.add_string b "# pipeline profile (per stage)\n";
    List.iter
      (fun (stage, n, ns) ->
        let mean = if n = 0 then 0. else float_of_int ns /. float_of_int n in
        Buffer.add_string b
          (Printf.sprintf "# %-16s n=%-8d total=%.3fms mean=%.0fns\n" stage n
             (float_of_int ns /. 1e6) mean))
      rows;
    Buffer.contents b
  end
