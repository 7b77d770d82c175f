type t =
  | Unique of { relation : string; attribute : string }
  | Primary_key of { relation : string; attribute : string }
  | Foreign_key of {
      src_relation : string;
      src_attribute : string;
      dst_relation : string;
      dst_attribute : string;
    }

let equal (a : t) (b : t) = a = b
