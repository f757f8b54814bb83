exception Fault of string

let stack_top = 0x400000
let stack_bytes = 0x100000 (* 1 MiB master stack *)
let stack_base = stack_top - stack_bytes

(* Both regions are allocated on demand and auto-zeroed: the data/heap
   region grows up from the image's data base, the stack grows down from
   [stack_top].  Cells never touched read as zero. *)
type t = {
  data_base : int;
  mutable data : Isa.Value.t array;  (* indexed by (addr - data_base)/4 *)
  mutable data_len : int;  (* words in use (highest touched) *)
  mutable stack : Isa.Value.t array;  (* indexed by (stack_top - 4 - addr)/4 *)
  mutable stack_len : int;  (* words in use below stack_top (deepest touched) *)
}

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let load (img : Isa.Program.image) =
  let n = Array.length img.Isa.Program.data_words in
  let data = Array.make (max 64 (2 * n)) Isa.Value.zero in
  Array.blit img.Isa.Program.data_words 0 data 0 n;
  { data_base = img.Isa.Program.data_base; data; data_len = n; stack = [||];
    stack_len = 0 }

let grow t want =
  let cap = Array.length t.data in
  if want > cap then begin
    let ncap = max want (2 * cap) in
    if t.data_base + (4 * ncap) > stack_base then
      fault "data/heap region collides with the stack (%d words)" ncap;
    let narr = Array.make ncap Isa.Value.zero in
    Array.blit t.data 0 narr 0 t.data_len;
    t.data <- narr
  end

(* the stack region is fixed, so its capacity never faults *)
let grow_stack t want =
  let cap = Array.length t.stack in
  if want > cap then begin
    let ncap = min (stack_bytes / 4) (max want (max 64 (2 * cap))) in
    let narr = Array.make ncap Isa.Value.zero in
    Array.blit t.stack 0 narr 0 t.stack_len;
    t.stack <- narr
  end

(* The cell of [addr]: a data index [i >= 0], or a stack index [j] encoded
   as [-j - 1]. *)
let locate t addr =
  if addr land 3 <> 0 then fault "unaligned access at 0x%x" addr;
  if addr >= stack_base && addr < stack_top then -((stack_top - 4 - addr) / 4) - 1
  else if addr >= t.data_base then begin
    let idx = (addr - t.data_base) / 4 in
    if t.data_base + (4 * idx) >= stack_base then
      fault "access beyond memory at 0x%x" addr;
    idx
  end
  else fault "access to unmapped address 0x%x" addr

let read t addr =
  let i = locate t addr in
  if i >= 0 then (if i < t.data_len then t.data.(i) else Isa.Value.zero)
  else
    let j = -i - 1 in
    if j < t.stack_len then t.stack.(j) else Isa.Value.zero

let write t addr v =
  let i = locate t addr in
  if i >= 0 then begin
    grow t (i + 1);
    if i >= t.data_len then t.data_len <- i + 1;
    t.data.(i) <- v
  end
  else begin
    let j = -i - 1 in
    grow_stack t (j + 1);
    if j >= t.stack_len then t.stack_len <- j + 1;
    t.stack.(j) <- v
  end

let fetch_add t addr inc =
  let old = Isa.Value.to_int (read t addr) in
  write t addr (Isa.Value.int (old + inc));
  old

let read_string t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    match Isa.Value.to_int (read t a) with
    | 0 -> Buffer.contents buf
    | c when Buffer.length buf > 65536 -> fault "unterminated string at 0x%x" c
    | c ->
      Buffer.add_char buf (Char.chr (c land 0xFF));
      go (a + 4)
  in
  go addr

let data_words t = t.data_len

(* The data copy keeps its capacity: [grow] doubles it, and the doubling
   decides when a growing heap meets the stack. *)
let snapshot t =
  {
    data_base = t.data_base;
    data = Array.copy t.data;
    data_len = t.data_len;
    stack = Array.sub t.stack 0 t.stack_len;
    stack_len = t.stack_len;
  }

let restore t snap =
  t.data <- Array.copy snap.data;
  t.data_len <- snap.data_len;
  t.stack <- Array.copy snap.stack;
  t.stack_len <- snap.stack_len
