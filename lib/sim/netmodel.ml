type t = {
  base_latency : float;
  jitter : float;
  drop_prob : float;
  dup_prob : float;
}

let lan = { base_latency = 50e-6; jitter = 50e-6; drop_prob = 0.; dup_prob = 0. }

let wan = { base_latency = 20e-3; jitter = 5e-3; drop_prob = 0.001; dup_prob = 0. }

let lossy = { base_latency = 50e-6; jitter = 100e-6; drop_prob = 0.05; dup_prob = 0.02 }

let ideal = { base_latency = 1e-3; jitter = 0.; drop_prob = 0.; dup_prob = 0. }

let sample_delay t rng =
  if t.drop_prob > 0. && Cp_util.Rng.bool rng t.drop_prob then None
  else begin
    let jitter = if t.jitter > 0. then Cp_util.Rng.float rng t.jitter else 0. in
    Some (t.base_latency +. jitter)
  end

let sample_duplicate t rng = t.dup_prob > 0. && Cp_util.Rng.bool rng t.dup_prob
