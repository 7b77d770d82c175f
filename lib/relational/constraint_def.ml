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

let pp ppf = function
  | Unique { relation; attribute } ->
      Format.fprintf ppf "UNIQUE %s.%s" relation attribute
  | Primary_key { relation; attribute } ->
      Format.fprintf ppf "PRIMARY KEY %s.%s" relation attribute
  | Foreign_key { src_relation; src_attribute; dst_relation; dst_attribute } ->
      Format.fprintf ppf "FOREIGN KEY %s.%s -> %s.%s" src_relation src_attribute
        dst_relation dst_attribute
