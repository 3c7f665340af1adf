(** Online and offline statistics used by the experiment harness. *)

(** {1 Summaries of float samples} *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Full summary of a sample list; all fields are 0 for the empty list. *)

val quantile : float array -> float -> float
(** [quantile sorted q] for [q] in [\[0,1\]] with linear interpolation.
    The array must be sorted ascending and non-empty. *)

val mean : float list -> float

val stddev : float list -> float
