(** Exact sample statistics: every sample is kept, so quantiles are
    exact order statistics rather than log-histogram bucket midpoints. *)

(** A growable float vector. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 1024 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0.0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let length v = v.len
let to_array v = Array.sub v.data 0 v.len

(** Quantile [q] in [\[0,1\]] by linear interpolation between order
    statistics; 0 on an empty sample. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let f = pos -. float_of_int i in
      a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let sorted v =
  let a = to_array v in
  Array.sort Float.compare a;
  a

let quantile v q = quantile_sorted (sorted v) q

let mean v =
  if v.len = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to v.len - 1 do
      s := !s +. v.data.(i)
    done;
    !s /. float_of_int v.len
  end

let median_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile_sorted a 0.5

(** [num /. den], 0 when [den] is 0. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
