open Aladin_relational

let min_distinct = 3

let min_avg_len = 3.0

let is_link_source ~prune (cs : Col_stats.t) =
  if not prune then cs.distinct > 0
  else
    cs.distinct >= min_distinct
    && cs.avg_len >= min_avg_len
    && cs.numeric_frac < 0.99

let is_text_field (cs : Col_stats.t) =
  cs.avg_len >= 30.0 && cs.alpha_frac >= 0.9 && cs.distinct > 0
