type t = int

let count = 64
let v0 = 0
let t0 = 1
let t1 = 2
let t2 = 3
let t3 = 4
let t4 = 5
let t5 = 6
let t6 = 7
let t7 = 8
let s0 = 9
let s1 = 10
let s2 = 11
let s3 = 12
let s4 = 13
let s5 = 14
let fp = 15
let a0 = 16
let a1 = 17
let a2 = 18
let a3 = 19
let a4 = 20
let a5 = 21
let t8 = 22
let t9 = 23
let t10 = 24
let t11 = 25
let ra = 26
let pv = 27
let at = 28
let gp = 29
let sp = 30
let zero = 31
let f0 = 32
let fzero = 63

let freg n =
  if n < 0 || n > 31 then invalid_arg (Printf.sprintf "Reg.freg: $f%d" n);
  32 + n

let is_integer r = r >= 0 && r < 32
let is_float r = r >= 32 && r < 64
let is_zero r = r = zero || r = fzero

let integer_names =
  [| "v0"; "t0"; "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7"; "s0"; "s1"; "s2";
     "s3"; "s4"; "s5"; "fp"; "a0"; "a1"; "a2"; "a3"; "a4"; "a5"; "t8"; "t9";
     "t10"; "t11"; "ra"; "pv"; "at"; "gp"; "sp"; "zero" |]

let name r =
  if is_integer r then integer_names.(r)
  else if is_float r then "f" ^ string_of_int (r - 32)
  else invalid_arg (Printf.sprintf "Reg.name: %d" r)

(* Software names, then the raw spellings accepted by the parser. *)
let spellings =
  List.init count (fun r -> (name r, r))
  @ List.init 32 (fun r -> ("r" ^ string_of_int r, r))
  @ List.init 32 (fun r -> ("$" ^ string_of_int r, r))

let pp ppf r = Format.pp_print_string ppf (name r)
let all = List.init count Fun.id
