type t = { round : int; leader : int }

(* Below every real ballot: real ballots always have [round >= 0] because
   [succ_for] never yields a negative round. *)
let bottom = { round = -1; leader = 0 }

let make ~round ~leader = { round; leader }

let compare a b =
  let c = Stdlib.compare a.round b.round in
  if c <> 0 then c else Stdlib.compare a.leader b.leader

let equal a b = compare a b = 0

let ( <= ) a b = compare a b <= 0

let ( < ) a b = compare a b < 0

let ( >= ) a b = compare a b >= 0

let ( > ) a b = compare a b > 0

let succ_for b ~leader =
  if Stdlib.( < ) b.round 0 then { round = 0; leader }
  else if Stdlib.( > ) leader b.leader then { round = b.round; leader }
  else { round = b.round + 1; leader }

let pp ppf b = Format.fprintf ppf "%d.%d" b.round b.leader
