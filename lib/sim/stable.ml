(* Kept only because the frozen end-to-end benchmark (bench/e2e/ring_bench.ml)
   names it; everything else uses Cp_storage.Storage directly. *)
include Cp_storage.Storage
