(** Random biological sequences and controlled mutation — used to plant
    homology relationships with a known ground truth. *)

val dna : Rng.t -> int -> string

val protein : Rng.t -> int -> string

val mutate : Rng.t -> rate:float -> string -> string
(** Point-mutate each position with probability [rate]; with rate/10 each,
    positions are deleted or duplicated (small indels). The alphabet is
    inferred from the input. *)
