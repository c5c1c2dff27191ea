(* Must not compile: an oblivious adversary may not read registers. *)
let f (v : Conrat_sim.View.oblivious) = Conrat_sim.View.contents v 0
