type prob = float

type 'a t =
  | Read : Memory.loc -> int option t
  | Write : Memory.loc * int -> unit t
  | Prob_write : Memory.loc * int * prob -> unit t
  | Prob_write_detect : Memory.loc * int * prob -> bool t
  | Collect : Memory.loc * int -> int option array t

type any = Any : 'a t -> any

type kind = Read_op | Write_op | Prob_write_op | Collect_op

let kind (Any op) =
  match op with
  | Read _ -> Read_op
  | Write _ -> Write_op
  | Prob_write _ -> Prob_write_op
  | Prob_write_detect _ -> Prob_write_op
  | Collect _ -> Collect_op

let loc (Any op) =
  match op with
  | Read l -> l
  | Write (l, _) -> l
  | Prob_write (l, _, _) -> l
  | Prob_write_detect (l, _, _) -> l
  | Collect (l, _) -> l

let value (Any op) =
  match op with
  | Read _ -> None
  | Write (_, v) -> Some v
  | Prob_write (_, v, _) -> Some v
  | Prob_write_detect (_, v, _) -> Some v
  | Collect _ -> None

let prob (Any op) =
  match op with
  | Read _ | Write _ | Collect _ -> None
  | Prob_write (_, _, p) -> Some p
  | Prob_write_detect (_, _, p) -> Some p

let is_write any =
  match kind any with
  | Write_op | Prob_write_op -> true
  | Read_op | Collect_op -> false

let is_read any =
  match kind any with
  | Read_op | Collect_op -> true
  | Write_op | Prob_write_op -> false

let to_sexp (Any op) =
  let open Sexp in
  match op with
  | Read l -> List [ Atom "read"; of_int l ]
  | Write (l, v) -> List [ Atom "write"; of_int l; of_int v ]
  | Prob_write (l, v, p) -> List [ Atom "prob-write"; of_int l; of_int v; of_float p ]
  | Prob_write_detect (l, v, p) ->
    List [ Atom "prob-write-detect"; of_int l; of_int v; of_float p ]
  | Collect (l, len) -> List [ Atom "collect"; of_int l; of_int len ]

let of_sexp sexp =
  let open Sexp in
  let err () = Error (Printf.sprintf "Op.of_sexp: bad operation %s" (to_string sexp)) in
  match sexp with
  | List [ Atom "read"; l ] ->
    (match to_int l with Some l -> Ok (Any (Read l)) | None -> err ())
  | List [ Atom "write"; l; v ] ->
    (match (to_int l, to_int v) with
     | Some l, Some v -> Ok (Any (Write (l, v)))
     | _ -> err ())
  | List [ Atom "prob-write"; l; v; p ] ->
    (match (to_int l, to_int v, to_float p) with
     | Some l, Some v, Some p -> Ok (Any (Prob_write (l, v, p)))
     | _ -> err ())
  | List [ Atom "prob-write-detect"; l; v; p ] ->
    (match (to_int l, to_int v, to_float p) with
     | Some l, Some v, Some p -> Ok (Any (Prob_write_detect (l, v, p)))
     | _ -> err ())
  | List [ Atom "collect"; l; len ] ->
    (match (to_int l, to_int len) with
     | Some l, Some len -> Ok (Any (Collect (l, len)))
     | _ -> err ())
  | _ -> err ()

let pp ppf (Any op) =
  match op with
  | Read l -> Format.fprintf ppf "read[%d]" l
  | Write (l, v) -> Format.fprintf ppf "write[%d]<-%d" l v
  | Prob_write (l, v, p) -> Format.fprintf ppf "pwrite[%d]<-%d@@%.3g" l v p
  | Prob_write_detect (l, v, p) -> Format.fprintf ppf "pwrite?[%d]<-%d@@%.3g" l v p
  | Collect (l, n) -> Format.fprintf ppf "collect[%d..%d]" l (l + n - 1)
