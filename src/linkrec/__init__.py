"""Temporal recommender graphs over user-item link streams.

Builds three graphs from timestamped interaction data -- the classical
bipartite graph (BIP), the session-based temporal graph (STG) and the
link stream graph (LSG) -- scores items with personalized PageRank and
evaluates top-N recommendations with a sliding time-window protocol.
"""

from .linkstream import (
    Event,
    FilterConfig,
    LinkStream,
    ParseError,
    Window,
    filter_min_activity,
    filter_positive,
    parse_link_stream,
    split_windows,
)
from .graphs import (
    RecGraph,
    build_bip,
    build_graph,
    build_lsg,
    build_stg,
    edge_list_lines,
    render_node,
    write_edge_list,
)
from .ranker import (
    ScoreVector,
    TransitionMatrix,
    item_scores,
    pagerank,
    personalization,
    recommend,
    transition_matrix,
)
from .evaluation import (
    EvaluationReport,
    MetricComponents,
    f1_components,
    hit_ratio_components,
    hits_at_n,
    iter_folds,
    map_components,
    run_protocol,
    time_average,
)
from .tuning import (
    ParamGrid,
    ParamSetting,
    SearchResult,
    leaderboard_csv,
    sample_settings,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "Event",
    "LinkStream",
    "FilterConfig",
    "Window",
    "ParseError",
    "parse_link_stream",
    "filter_positive",
    "filter_min_activity",
    "split_windows",
    "RecGraph",
    "build_bip",
    "build_stg",
    "build_lsg",
    "build_graph",
    "render_node",
    "edge_list_lines",
    "write_edge_list",
    "TransitionMatrix",
    "ScoreVector",
    "transition_matrix",
    "personalization",
    "pagerank",
    "item_scores",
    "recommend",
    "MetricComponents",
    "EvaluationReport",
    "hits_at_n",
    "f1_components",
    "hit_ratio_components",
    "map_components",
    "iter_folds",
    "run_protocol",
    "time_average",
    "ParamSetting",
    "ParamGrid",
    "SearchResult",
    "sample_settings",
    "search",
    "leaderboard_csv",
]
