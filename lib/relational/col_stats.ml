type t = {
  relation : string;
  attribute : string;
  rows : int;
  nulls : int;
  distinct : int;
  min_len : int;
  max_len : int;
  avg_len : float;
  numeric_frac : float;
  alpha_frac : float;
  all_unique : bool;
  sample : Value.t list;
}

let sample_size = 20

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let of_column ~relation ~attribute values =
  let rows = Array.length values in
  let nulls = ref 0 in
  let seen = Vtbl.create 64 in
  let dup = ref false in
  let min_len = ref max_int in
  let max_len = ref 0 in
  let len_sum = ref 0 in
  let numeric = ref 0 in
  let alpha = ref 0 in
  let sample = ref [] in
  let nsample = ref 0 in
  Array.iter
    (fun v ->
      if Value.is_null v then incr nulls
      else begin
        let len = Value.length v in
        if len < !min_len then min_len := len;
        if len > !max_len then max_len := len;
        len_sum := !len_sum + len;
        if Value.is_numeric v then incr numeric;
        if Value.contains_alpha v then incr alpha;
        if Vtbl.mem seen v then dup := true
        else begin
          Vtbl.add seen v ();
          if !nsample < sample_size then begin
            sample := v :: !sample;
            incr nsample
          end
        end
      end)
    values;
  let nonnull = rows - !nulls in
  let frac n = if nonnull = 0 then 0.0 else float_of_int n /. float_of_int nonnull in
  {
    relation;
    attribute;
    rows;
    nulls = !nulls;
    distinct = Vtbl.length seen;
    min_len = (if nonnull = 0 then 0 else !min_len);
    max_len = !max_len;
    avg_len = frac !len_sum;
    numeric_frac = frac !numeric;
    alpha_frac = frac !alpha;
    all_unique = nonnull > 0 && not !dup;
    sample = List.rev !sample;
  }

let of_relation rel =
  let relation = Relation.name rel in
  Schema.names (Relation.schema rel)
  |> List.map (fun attribute ->
         of_column ~relation ~attribute (Relation.column rel attribute))

let length_spread t =
  if t.max_len = 0 then 0.0
  else float_of_int (t.max_len - t.min_len) /. float_of_int t.max_len
