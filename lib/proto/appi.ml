module type S = sig
  type state

  val name : string

  val init : unit -> state

  val apply : state -> string -> string

  val read_only : string -> bool

  val snapshot : state -> string

  val restore : string -> state
end

type instance = {
  app_name : string;
  apply : string -> string;
  read_only : string -> bool;
  snapshot : unit -> string;
  restore : string -> unit;
}

let instantiate (module A : S) =
  let state = ref (A.init ()) in
  {
    app_name = A.name;
    apply = (fun op -> A.apply !state op);
    read_only = A.read_only;
    snapshot = (fun () -> A.snapshot !state);
    restore = (fun s -> state := A.restore s);
  }
