open Aladin_relational

type params = {
  min_distinct : int;
  exclude_numeric : bool;
  min_avg_len : float;
  enabled : bool;
}

let default_params =
  { min_distinct = 3; exclude_numeric = true; min_avg_len = 3.0; enabled = true }

let no_pruning =
  { min_distinct = 0; exclude_numeric = false; min_avg_len = 0.0; enabled = false }

let is_link_source params (cs : Col_stats.t) =
  if not params.enabled then cs.distinct > 0
  else
    cs.distinct >= params.min_distinct
    && cs.avg_len >= params.min_avg_len
    && ((not params.exclude_numeric) || cs.numeric_frac < 0.99)

let is_text_field (cs : Col_stats.t) =
  cs.avg_len >= 30.0 && cs.alpha_frac >= 0.9 && cs.distinct > 0
