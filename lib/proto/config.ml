type t = { epoch : int; mains : int list; aux_pool : int list }

let sort_uniq = List.sort_uniq compare

let make ~epoch ~mains ~aux_pool =
  let mains = sort_uniq mains and aux_pool = sort_uniq aux_pool in
  if mains = [] then invalid_arg "Config.make: empty mains";
  if List.exists (fun m -> List.mem m aux_pool) mains then
    invalid_arg "Config.make: mains and aux_pool intersect";
  { epoch; mains; aux_pool }

let cheap ~f =
  if f < 0 then invalid_arg "Config.cheap: negative f";
  make ~epoch:0 ~mains:(List.init (f + 1) Fun.id)
    ~aux_pool:(List.init f (fun i -> f + 1 + i))

let classic ~n =
  if n < 1 then invalid_arg "Config.classic: n must be >= 1";
  make ~epoch:0 ~mains:(List.init n Fun.id) ~aux_pool:[]

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let active_auxes t = take (List.length t.mains - 1) t.aux_pool

let acceptors t = List.sort compare (t.mains @ active_auxes t)

let is_main t id = List.mem id t.mains

let is_active_aux t id = List.mem id (active_auxes t)

let is_acceptor t id = is_main t id || is_active_aux t id

let quorum_size t = (List.length (acceptors t) / 2) + 1

let is_quorum t nodes =
  let accs = acceptors t in
  let count = List.length (List.filter (fun a -> List.mem a nodes) accs) in
  count >= quorum_size t

let mains_are_majority t = List.length t.mains >= quorum_size t

let remove_main t m =
  if not (is_main t m) then None
  else if List.length t.mains <= 1 then None
  else
    Some
      {
        epoch = t.epoch + 1;
        mains = List.filter (fun x -> x <> m) t.mains;
        aux_pool = t.aux_pool;
      }

let add_main t m =
  if is_main t m then None
  else
    Some
      {
        epoch = t.epoch + 1;
        mains = List.sort compare (m :: t.mains);
        aux_pool = List.filter (fun x -> x <> m) t.aux_pool;
      }

let machine_ids t ~spare_mains =
  let top = List.fold_left max (-1) (t.mains @ t.aux_pool) in
  (t.mains @ List.init spare_mains (fun i -> top + 1 + i), t.aux_pool)

let pp ppf t =
  Format.fprintf ppf "cfg#%d{mains=%a; aux=%a}" t.epoch
    Fmt.(brackets (list ~sep:comma int))
    t.mains
    Fmt.(brackets (list ~sep:comma int))
    (active_auxes t)

let equal a b = a.epoch = b.epoch && a.mains = b.mains && a.aux_pool = b.aux_pool
