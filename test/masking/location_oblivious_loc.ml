(* Must not compile: a location-oblivious adversary may not read the
   register a pending write targets. *)
let f (v : Conrat_sim.View.location_oblivious) = Conrat_sim.View.loc v 0
