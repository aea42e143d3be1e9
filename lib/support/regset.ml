(* Two immediate 32-bit halves.  OCaml ints are 63-bit on 64-bit platforms,
   so each half fits with room to spare; [mask32] keeps complements from
   leaking into the unused high bits. *)

type t = { lo : int; hi : int }

let bits = 64
let mask32 = 0xFFFF_FFFF
let empty = { lo = 0; hi = 0 }
let full = { lo = mask32; hi = mask32 }

let check r =
  if r < 0 || r >= bits then
    invalid_arg (Printf.sprintf "Regset: register %d out of range" r)

let singleton r =
  check r;
  if r < 32 then { lo = 1 lsl r; hi = 0 } else { lo = 0; hi = 1 lsl (r - 32) }

let add r s =
  check r;
  if r < 32 then { s with lo = s.lo lor (1 lsl r) }
  else { s with hi = s.hi lor (1 lsl (r - 32)) }

let remove r s =
  check r;
  if r < 32 then { s with lo = s.lo land lnot (1 lsl r) }
  else { s with hi = s.hi land lnot (1 lsl (r - 32)) }

let mem r s =
  check r;
  if r < 32 then s.lo land (1 lsl r) <> 0 else s.hi land (1 lsl (r - 32)) <> 0

let union a b = { lo = a.lo lor b.lo; hi = a.hi lor b.hi }
let inter a b = { lo = a.lo land b.lo; hi = a.hi land b.hi }
let diff a b = { lo = a.lo land lnot b.lo; hi = a.hi land lnot b.hi }
let complement a = { lo = mask32 land lnot a.lo; hi = mask32 land lnot a.hi }
let equal a b = a.lo = b.lo && a.hi = b.hi

let compare a b =
  let c = Int.compare a.hi b.hi in
  if c <> 0 then c else Int.compare a.lo b.lo

let subset a b = a.lo land lnot b.lo = 0 && a.hi land lnot b.hi = 0
let disjoint a b = a.lo land b.lo = 0 && a.hi land b.hi = 0
let is_empty s = s.lo = 0 && s.hi = 0

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  (x * 0x0101_0101) lsr 24 land 0xFF

let cardinal s = popcount32 s.lo + popcount32 s.hi

let iter f s =
  for r = 0 to 31 do
    if s.lo land (1 lsl r) <> 0 then f r
  done;
  for r = 0 to 31 do
    if s.hi land (1 lsl r) <> 0 then f (r + 32)
  done

let fold f s init =
  let acc = ref init in
  iter (fun r -> acc := f r !acc) s;
  !acc

let for_all p s = fold (fun r ok -> ok && p r) s true
let exists p s = fold (fun r found -> found || p r) s false
let filter p s = fold (fun r acc -> if p r then add r acc else acc) s empty

let choose s =
  if is_empty s then None
  else
    let rec first n = if mem n s then n else first (n + 1) in
    Some (first 0)

let of_list rs = List.fold_left (fun s r -> add r s) empty rs
let to_list s = List.rev (fold (fun r acc -> r :: acc) s [])
let hash s = (s.hi * 0x9E3779B1) lxor s.lo

let lo_bits s = s.lo
let hi_bits s = s.hi
let of_bits ~lo ~hi = { lo = lo land mask32; hi = hi land mask32 }

let add_to_buffer ?(name = fun r -> "r" ^ string_of_int r) b s =
  Buffer.add_char b '{';
  let first = ref true in
  iter
    (fun r ->
      if !first then first := false else Buffer.add_string b ", ";
      Buffer.add_string b (name r))
    s;
  Buffer.add_char b '}'

let to_string ?name s =
  let b = Buffer.create 64 in
  add_to_buffer ?name b s;
  Buffer.contents b

let pp ?name ppf s = Format.pp_print_string ppf (to_string ?name s)
