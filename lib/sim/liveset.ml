type t = {
  n : int;
  bits : Bytes.t;      (* '\001' = member *)
  (* 1-based Fenwick tree over [bits], padded with never-member
     positions up to [size], a power of two, so that select's strides
     never leave it. *)
  tree : int array;
  size : int;
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Liveset.create: negative size";
  let size = ref 1 in
  while !size < n do size := !size * 2 done;
  { n; bits = Bytes.make n '\000'; tree = Array.make (!size + 1) 0; size = !size; count = 0 }

let count t = t.count
let mem t pid = Bytes.get t.bits pid <> '\000'

let update t pid d =
  let i = ref (pid + 1) in
  while !i <= t.size do
    t.tree.(!i) <- t.tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let add t pid =
  if not (mem t pid) then begin
    Bytes.set t.bits pid '\001';
    t.count <- t.count + 1;
    update t pid 1
  end

let remove t pid =
  if mem t pid then begin
    Bytes.set t.bits pid '\000';
    t.count <- t.count - 1;
    update t pid (-1)
  end

(* Linear-time construction: seed each node with its own bit, then push
   every node's partial sum into its parent. *)
let fill t f =
  t.count <- 0;
  Array.fill t.tree 0 (t.size + 1) 0;
  for pid = 0 to t.n - 1 do
    if f pid then begin
      Bytes.set t.bits pid '\001';
      t.count <- t.count + 1;
      t.tree.(pid + 1) <- 1
    end
    else Bytes.set t.bits pid '\000'
  done;
  for i = 1 to t.size do
    let j = i + (i land -i) in
    if j <= t.size then t.tree.(j) <- t.tree.(j) + t.tree.(i)
  done

(* Members below [pid]. *)
let rank t pid =
  let s = ref 0 and i = ref pid in
  while !i > 0 do
    s := !s + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* Binary lifting: descend through the strides, keeping [pos] the
   longest prefix holding at most [k] members.  [pos + stride] stays
   below [size]: the strides chosen are distinct powers of two under
   it. *)
let nth t k =
  if k < 0 || k >= t.count then invalid_arg "Liveset.nth: index out of range";
  let pos = ref 0 and rem = ref k and stride = ref (t.size lsr 1) in
  while !stride > 0 do
    let c = t.tree.(!pos + !stride) in
    (* Branch-free step: [take] is all ones when [c <= !rem], else 0;
       the branch it replaces is a coin flip for the predictor. *)
    let take = (c - !rem - 1) asr (Sys.int_size - 1) in
    pos := !pos + (!stride land take);
    rem := !rem - (c land take);
    stride := !stride lsr 1
  done;
  !pos

let next_from t start =
  if t.count = 0 then invalid_arg "Liveset.next_from: empty set";
  let start = ((start mod t.n) + t.n) mod t.n in
  if mem t start then start
  else
    let r = rank t start in
    nth t (if r < t.count then r else 0)
