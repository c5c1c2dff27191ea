(* Must not compile: a value-oblivious adversary may not read the
   value of a pending write. *)
let f (v : Conrat_sim.View.value_oblivious) = Conrat_sim.View.value v 0
