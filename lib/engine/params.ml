type t = {
  alpha : int;
  tick : float;
  hb_interval : float;
  leader_timeout : float;
  election_fuzz : float;
  suspect_timeout : float;
  widen_timeout : float;
  retransmit : float;
  snapshot_every : int;
  catchup_batch : int;
  gap_threshold : int;
  join_interval : float;
  client_timeout : float;
  enable_leases : bool;
  lease_guard : float;
  lease_margin : float;
  batch_max_cmds : int;
  batch_max_bytes : int;
  batch_linger : float;
  session_window : int;
  pipeline_window : int;
  queue_limit : int;
  span_ttl : float;
}

let default =
  {
    alpha = 32;
    tick = 1e-3;
    hb_interval = 5e-3;
    leader_timeout = 25e-3;
    election_fuzz = 15e-3;
    suspect_timeout = 25e-3;
    widen_timeout = 5e-3;
    retransmit = 10e-3;
    snapshot_every = 500;
    catchup_batch = 256;
    gap_threshold = 8;
    join_interval = 20e-3;
    client_timeout = 50e-3;
    enable_leases = false;
    lease_guard = 25e-3;
    lease_margin = 0.2;
    batch_max_cmds = 64;
    batch_max_bytes = 1024;
    batch_linger = 0.;
    session_window = 1024;
    pipeline_window = 4;
    queue_limit = 4096;
    span_ttl = 10.;
  }

let scale k t =
  {
    t with
    tick = t.tick *. k;
    hb_interval = t.hb_interval *. k;
    leader_timeout = t.leader_timeout *. k;
    election_fuzz = t.election_fuzz *. k;
    suspect_timeout = t.suspect_timeout *. k;
    widen_timeout = t.widen_timeout *. k;
    retransmit = t.retransmit *. k;
    join_interval = t.join_interval *. k;
    client_timeout = t.client_timeout *. k;
    lease_guard = t.lease_guard *. k;
    batch_linger = t.batch_linger *. k;
    span_ttl = t.span_ttl *. k;
  }
