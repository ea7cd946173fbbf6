"""Personalized PageRank over a recommender graph, step by step:
transition matrix, restart vector, power iteration, per-item scores,
then the top-N list that recommend() returns.

Run from the repository root:  python demos/03_personalized_pagerank.py
"""

from linkrec import (
    Event,
    LinkStream,
    ParamSetting,
    build_bip,
    build_lsg,
    item_scores,
    pagerank,
    personalization,
    recommend,
    transition_matrix,
)

events = [
    Event(1, "u1", "i1"), Event(1, "u2", "i3"),
    Event(2, "u1", "i2"), Event(2, "u2", "i3"),
    Event(3, "u2", "i4"), Event(4, "u1", "i3"),
    Event(5, "u2", "i4"), Event(6, "u1", "i2"),
]
stream = LinkStream.from_events(events)
graph = build_bip(stream)

# The transition matrix normalizes each node's out-edges by total
# out-weight (column convention), recording dangling nodes separately.
tm = transition_matrix(graph)
print("nodes in index order:", tm.nodes)
print("dangling nodes:", int(tm.dangling.sum()))

# The restart vector d is flavor-specific; for BIP all mass sits on the
# user's own node.
d = personalization(graph, "u1")
print("restart vector:", d)

# The walk solves PR = alpha * M * PR + (1 - alpha) * d. A higher alpha
# follows edges further before restarting; scores always sum to 1.
for alpha in (0.15, 0.5, 0.9):
    pr = pagerank(tm, d, alpha=alpha)
    total = sum(pr.scores.values())
    items = {item: round(s, 4) for item, s in item_scores(graph, pr).items()}
    print(f"alpha={alpha}: sum={total:.12f}, item scores={items}")

# recommend() runs the same steps for one user, as the evaluation protocol
# does for a block of users, and keeps the best n items not yet seen
# (ties go to the smaller item id).
seen = stream.items_by_user()["u1"]
recs = recommend(graph, "u1", t=6, params=ParamSetting(alpha=0.5, n=3), seen=seen)
print("\nu1 already selected", sorted(seen))
print("recommendation:", recs)
assert [item for item, _ in recs] == ["i4"]

# On the LSG, the restart targets the user's latest temporal node at or
# before the query time, and item scores sum over an item's occurrences.
lsg = build_lsg(stream, eta_s=0.5)
print("\nLSG restart at t=4.5:", personalization(lsg, "u1", t=4.5))
recs = recommend(lsg, "u1", t=4.5, params=ParamSetting(alpha=0.5, n=3, eta_s=0.5),
                 seen={"i1", "i2", "i3"})
print("LSG recommendation:", recs)
