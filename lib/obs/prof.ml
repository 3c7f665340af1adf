(* Pipeline profiler: per-stage wall-time accounting for the runtime loop.

   Each timed span ([start], then [record_since]) charges its duration to
   [stage] as a pair of counters through the [count] sink —
   ["prof.<stage>.ns"] (summed nanoseconds) and ["prof.<stage>.n"]
   (samples). The sink is applied to
   each name once per profiler and the resulting adder kept, so a sink
   that resolves a counter handle on partial application makes recording
   free of string hashing. Stage summaries ride
   the existing counter plumbing ({!Cp_sim.Metrics}, {!Prom.render}) with
   O(1) memory, unlike observation series which retain every sample.

   The clock is injected: the UDP runtime passes wall time, the simulator
   passes virtual time (where handler durations are 0 by construction, so
   sim profiles degenerate to per-stage call counts — still useful, and
   deterministic). *)

type stage = { id : int; ns_name : string; n_name : string }

type t = {
  clock : unit -> float;
  count : string -> int -> unit; (* counter sink: (name, increment) *)
  mutable adders : (int -> unit) array;
      (* [count name] for stage [id]'s ns (slot 2id) and n (slot 2id+1)
         counters, resolved on the stage's first record *)
}

let next_id = Atomic.make 0

let stage name =
  {
    id = Atomic.fetch_and_add next_id 1;
    ns_name = "prof." ^ name ^ ".ns";
    n_name = "prof." ^ name ^ ".n";
  }

let unresolved (_ : int) = ()

let create ~clock ~count = { clock; count; adders = [||] }

let resolve t stage =
  let n = Array.length t.adders in
  if 2 * stage.id >= n then begin
    let grown = Array.make (max (2 * (stage.id + 1)) (2 * n)) unresolved in
    Array.blit t.adders 0 grown 0 n;
    t.adders <- grown
  end;
  t.adders.(2 * stage.id) <- t.count stage.ns_name;
  t.adders.((2 * stage.id) + 1) <- t.count stage.n_name

let record t stage ~ns =
  let i = 2 * stage.id in
  if i >= Array.length t.adders || t.adders.(i) == unresolved then resolve t stage;
  t.adders.(i) ns;
  t.adders.(i + 1) 1

let start t = t.clock ()

let record_since t stage t0 = record t stage ~ns:(int_of_float ((t.clock () -. t0) *. 1e9))

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
