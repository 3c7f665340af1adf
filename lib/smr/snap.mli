(** Deterministic, version-stable snapshot codec shared by the bundled
    applications. Built on {!Cp_proto.Codec}'s varint/string primitives;
    hashtable bindings are emitted sorted by key so equal states yield
    byte-identical snapshots on every OCaml version and insertion order. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val to_string : (Buffer.t -> unit) -> string

val of_string :
  app:string -> (string -> pos:int -> ('a * int, string) result) -> string -> 'a
(** Runs the reader over the whole string; raises [Invalid_argument] on
    malformed or trailing input (a bad snapshot is a bug, not recoverable). *)

val write_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val read_list :
  (string -> pos:int -> ('a * int, string) result) ->
  string ->
  pos:int ->
  ('a list * int, string) result

val sorted_bindings : (string, 'v) Hashtbl.t -> (string * 'v) list

val read_pair_ss : string -> pos:int -> ((string * string) * int, string) result

val read_pair_si : string -> pos:int -> ((string * int) * int, string) result

type 'v value = { size : 'v -> int; put : Cp_proto.Codec.cursor -> 'v -> unit }
(** A table value's encoding: its exact size and how to write it. *)

val string_value : string value
(** Length-prefixed, as {!Cp_proto.Codec.write_string}. *)

val int_value : int value
(** A zig-zag varint, as {!Cp_proto.Codec.write_varint}. *)

val table_snapshot : 'v value -> (string, 'v) Hashtbl.t -> string
(** [write_list] of the bindings sorted by key, each a length-prefixed key
    then its value; sized first, then written once. *)

val table_restore :
  app:string ->
  (string -> pos:int -> ((string * 'v) * int, string) result) ->
  size:int ->
  string ->
  (string, 'v) Hashtbl.t
