(** XML serialization. *)

val add_node : ?indent:bool -> Buffer.t -> Tree.t -> unit

val node_to_string : ?indent:bool -> Tree.t -> string

val to_string : ?indent:bool -> Tree.document -> string
