(* Pinned outputs: the exact exhaustion counts of every verify config
   and the aggregate digest of every sampling spec at the default seed.
   They live in [pins.sexp] beside this file, in the repo's own
   s-expression syntax, so a corrupted pin is a one-character edit. *)

module Sexp = Conrat_sim.Sexp

type counts = (string * int) list

type t = {
  default_seed : int;
  verify : (string * counts) list;  (** checker config -> exhaustion counts *)
  sample : (string * counts) list;  (** spec id -> aggregate digest *)
}

let counts_of sexp =
  match sexp with
  | Sexp.List (Sexp.Atom key :: fields) ->
    let field = function
      | Sexp.List [ Sexp.Atom f; v ] ->
        (match Sexp.to_int v with
         | Some i -> (f, i)
         | None -> failwith (Printf.sprintf "pin %s.%s is not an integer" key f))
      | _ -> failwith (Printf.sprintf "malformed field in pin %s" key)
    in
    (key, List.map field fields)
  | _ -> failwith "malformed pin entry"

let of_sexp doc =
  let section name =
    match Sexp.assoc name doc with
    | Some entries -> List.map counts_of entries
    | None -> failwith (Printf.sprintf "pins: missing section %s" name)
  in
  let default_seed =
    match Option.bind (Sexp.assoc1 "default_seed" doc) Sexp.to_int with
    | Some s -> s
    | None -> failwith "pins: missing default_seed"
  in
  { default_seed; verify = section "verify"; sample = section "sample" }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text ->
    (match Sexp.of_string text with
     | Error e -> Error (path ^ ": " ^ e)
     | Ok doc -> (try Ok (of_sexp doc) with Failure e -> Error (path ^ ": " ^ e)))

(* Mismatch messages between the pin for [key] and [observed]; every
   pinned field must be observed with the same value, and a key with no
   pin is itself a mismatch. *)
let check table ~key (observed : counts) =
  match List.assoc_opt key table with
  | None -> [ Printf.sprintf "%s: no pin" key ]
  | Some pinned ->
    List.filter_map
      (fun (f, want) ->
        match List.assoc_opt f observed with
        | Some got when got = want -> None
        | Some got -> Some (Printf.sprintf "%s.%s: got %d, pinned %d" key f got want)
        | None -> Some (Printf.sprintf "%s.%s: not observed" key f))
      pinned
