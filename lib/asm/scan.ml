exception Error of { line : int; message : string }

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (** offset of the current line's first byte *)
  mutable tok_start : int;
  mutable tok_end : int;
  mutable key : int;  (** {!key} of the span, packed while scanning it *)
}

let create src =
  {
    src;
    len = String.length src;
    pos = 0;
    line = 1;
    line_start = 0;
    tok_start = 0;
    tok_end = 0;
    key = -1;
  }

(* Byte classes, by table: one load per byte in the scanning loops. *)
let other = 0
let blank = 1
let digit = 2
let ident_start = 3

let classes =
  String.init 256 (fun code ->
      match Char.chr code with
      | ' ' | '\t' | '\r' -> Char.chr blank
      | '0' .. '9' -> Char.chr digit
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> Char.chr ident_start
      | _ -> Char.chr other)

let[@inline] class_of c = Char.code (String.unsafe_get classes (Char.code c))
let[@inline] is_digit c = class_of c = digit
let[@inline] is_ident_start c = class_of c = ident_start
let[@inline] is_ident_char c = class_of c >= digit
let[@inline] is_blank c = class_of c = blank

let fail_at line message = raise (Error { line; message })

(* End of the identifier characters starting at [i]. *)
let ident_end s i =
  let i = ref i in
  while !i < s.len && is_ident_char (String.unsafe_get s.src !i) do
    incr i
  done;
  !i

let digits_end s i =
  let i = ref i in
  while !i < s.len && is_digit (String.unsafe_get s.src !i) do
    incr i
  done;
  !i

(* Value of the integer text [i, j): at most 18 digits cannot overflow, so
   only longer text goes through [int_of_string_opt] for the range check. *)
let int_value s i j =
  let neg = s.src.[i] = '-' in
  let first = if neg then i + 1 else i in
  if j - first <= 18 then begin
    let v = ref 0 in
    for k = first to j - 1 do
      v := (!v * 10) + Char.code (String.unsafe_get s.src k) - 48
    done;
    if neg then - !v else !v
  end
  else
    let text = String.sub s.src i (j - i) in
    match int_of_string_opt text with
    | Some v -> v
    | None -> fail_at s.line (Printf.sprintf "integer %s out of range" text)

let starts_int s i =
  i < s.len
  &&
  let c = String.unsafe_get s.src i in
  is_digit c || (c = '-' && i + 1 < s.len && is_digit (String.unsafe_get s.src (i + 1)))

let no_directive_name s = fail_at s.line "expected directive name after '.'"

(* The lexical rules over the whole current line, raising its first
   lexical error.  Only the error path runs this. *)
let check_line s =
  let stop =
    match String.index_from_opt s.src s.line_start '\n' with Some q -> q | None -> s.len
  in
  let i = ref s.line_start in
  while !i < stop do
    let c = s.src.[!i] in
    if c = '#' then i := stop
    else if is_blank c || String.contains ",:()[]{}=" c then incr i
    else if c = '.' then begin
      let j = ident_end s (!i + 1) in
      if j = !i + 1 then no_directive_name s;
      i := j
    end
    else if starts_int s !i then begin
      let j = digits_end s (if c = '-' then !i + 1 else !i) in
      ignore (int_value s !i j);
      i := j
    end
    else if is_ident_start c then i := ident_end s !i
    else fail_at s.line (Printf.sprintf "unexpected character %C" c)
  done

let fail s fmt =
  Format.kasprintf
    (fun message ->
      check_line s;
      fail_at s.line message)
    fmt

(* --- Lines --------------------------------------------------------------- *)

let skip_blank s =
  let i = ref s.pos in
  while !i < s.len && is_blank (String.unsafe_get s.src !i) do
    incr i
  done;
  if !i < s.len && String.unsafe_get s.src !i = '#' then
    while !i < s.len && String.unsafe_get s.src !i <> '\n' do
      incr i
    done;
  s.pos <- !i

let at_eol s =
  skip_blank s;
  s.pos >= s.len || String.unsafe_get s.src s.pos = '\n'

let end_line s =
  if s.pos < s.len then begin
    s.pos <- s.pos + 1;
    s.line <- s.line + 1;
    s.line_start <- s.pos
  end

let rec next_line s =
  if at_eol s then
    if s.pos >= s.len then false
    else begin
      end_line s;
      next_line s
    end
  else true

(* --- Tokens -------------------------------------------------------------- *)

let punct s c =
  skip_blank s;
  if s.pos < s.len && String.unsafe_get s.src s.pos = c then begin
    s.pos <- s.pos + 1;
    true
  end
  else false

(* Makes the identifier characters from [i] the current span, packing
   its key on the way. *)
let span s i =
  let src = s.src and len = s.len in
  let j = ref i and k = ref 0 in
  while !j < len && is_ident_char (String.unsafe_get src !j) do
    if !j - i < 7 then
      k := !k lor (Char.code (String.unsafe_get src !j) lsl (8 * (!j - i)));
    incr j
  done;
  s.tok_start <- i;
  s.tok_end <- !j;
  s.key <- (if !j - i > 7 then -1 else !k);
  s.pos <- !j

let ident s =
  skip_blank s;
  s.pos < s.len
  && is_ident_start (String.unsafe_get s.src s.pos)
  &&
  (span s s.pos;
   true)

let directive s =
  skip_blank s;
  s.pos < s.len
  && String.unsafe_get s.src s.pos = '.'
  &&
  (span s (s.pos + 1);
   if s.tok_end = s.tok_start then no_directive_name s;
   true)

let pos s = s.pos
let rewind s pos = s.pos <- pos

let int_next s =
  skip_blank s;
  starts_int s s.pos

let int s =
  let i = s.pos in
  let j = digits_end s (if s.src.[i] = '-' then i + 1 else i) in
  s.pos <- j;
  int_value s i j

(* --- The current span ---------------------------------------------------- *)

let key s = s.key

(* [src.[i .. j - 1]] equals [name]. *)
let rec same_from src i name k n =
  k = n
  || String.unsafe_get src (i + k) = String.unsafe_get name k
     && same_from src i name (k + 1) n

let same src i j name =
  let n = String.length name in
  j - i = n && same_from src i name 0 n

let tok_is s lit = same s.src s.tok_start s.tok_end lit

let tok_string s = String.sub s.src s.tok_start (s.tok_end - s.tok_start)

(* Multiplicative hashing of a key or string hash into a power-of-two
   table. *)
let spread h mask = ((h * 0x2545F4914F6CDD1D) lsr 24) land mask

(* The key of a whole string, or [-1] if it is not one span of up to 7
   identifier bytes. *)
let key_of_string name =
  let s = create name in
  span s 0;
  if s.tok_end = s.len then s.key else -1

let rec pow2_above n p = if p >= n then p else pow2_above n (2 * p)

module Keytab = struct
  type 'a t = { keys : int array; vals : 'a array; mask : int; absent : 'a }

  let of_list ~absent entries =
    let size = pow2_above (4 * List.length entries) 16 in
    let t =
      { keys = Array.make size 0; vals = Array.make size absent; mask = size - 1; absent }
    in
    List.iter
      (fun (name, v) ->
        let k = key_of_string name in
        if k <= 0 then invalid_arg ("Scan.Keytab: " ^ name);
        let i = ref (spread k t.mask) in
        while t.keys.(!i) <> 0 && t.keys.(!i) <> k do
          i := (!i + 1) land t.mask
        done;
        t.keys.(!i) <- k;
        t.vals.(!i) <- v)
      entries;
    t

  let rec probe t k i =
    let k' = Array.unsafe_get t.keys i in
    if k' = k then Array.unsafe_get t.vals i
    else if k' = 0 then t.absent
    else probe t k ((i + 1) land t.mask)

  let find t k = if k < 0 then t.absent else probe t k (spread k t.mask)
end

module Names = struct
  type table = {
    mutable slots : int array;
        (** open addressing, twice the length of [names]: id + 1, or 0
            when empty *)
    mutable names : string array;  (** id -> name *)
    mutable hashes : int array;  (** id -> {!hash} of the name *)
    mutable count : int;
  }

  let create () =
    {
      slots = Array.make 1024 0;
      names = Array.make 512 "";
      hashes = Array.make 512 0;
      count = 0;
    }

  (* A name of at most 7 bytes hashes to its key, which no other name
     shares; a longer one to a polynomial hash with the sign bit set. *)
  let hash src i j key =
    if key >= 0 then key
    else begin
      let h = ref 0 in
      for p = i to j - 1 do
        h := (!h * 31) + Char.code (String.unsafe_get src p)
      done;
      !h lor min_int
    end

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to t.count - 1 do
      let i = ref (spread t.hashes.(id) mask) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- id + 1
    done;
    t.slots <- slots;
    let names = Array.make (2 * t.count) "" and hashes = Array.make (2 * t.count) 0 in
    Array.blit t.names 0 names 0 t.count;
    Array.blit t.hashes 0 hashes 0 t.count;
    t.names <- names;
    t.hashes <- hashes

  let rec probe t src i j h k =
    let slot = Array.unsafe_get t.slots k in
    if slot = 0 then begin
      let id = t.count in
      t.names.(id) <- String.sub src i (j - i);
      t.hashes.(id) <- h;
      t.slots.(k) <- id + 1;
      t.count <- id + 1;
      if t.count = Array.length t.names then grow t;
      id
    end
    else
      let id = slot - 1 in
      if
        Array.unsafe_get t.hashes id = h
        && (h >= 0 || same src i j (Array.unsafe_get t.names id))
      then id
      else probe t src i j h ((k + 1) land (Array.length t.slots - 1))

  (* Id of the name [src.[i .. j - 1]], whose key is [key], adding it on
     first sight. *)
  let intern_sub t src i j key =
    let h = hash src i j key in
    probe t src i j h (spread h (Array.length t.slots - 1))

  let intern t s = intern_sub t s.src s.tok_start s.tok_end s.key

  let intern_string t name = intern_sub t name 0 (String.length name) (key_of_string name)

  let get t id = t.names.(id)
end

let registers = Keytab.of_list ~absent:(-1) Spike_isa.Reg.spellings
let register s = Keytab.find registers s.key
