/**
 * @file
 * Graph algorithms used by mapping, routing, and compression strategies:
 * BFS/Dijkstra shortest paths, shortest cycle through a vertex, and
 * connected components.
 */

#ifndef QOMPRESS_GRAPH_ALGORITHMS_HH
#define QOMPRESS_GRAPH_ALGORITHMS_HH

#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "graph/graph.hh"

namespace qompress {

/** Result of a single-source shortest-path computation. */
struct ShortestPaths
{
    /** dist[v] is the distance from the source; infinity if unreachable. */
    std::vector<double> dist;
    /** parent[v] on a shortest path tree; -1 for source/unreachable. */
    std::vector<int> parent;

    /** Convenience: the path source -> v (empty if unreachable). */
    std::vector<int> pathTo(int v) const;

    static constexpr double kInf = std::numeric_limits<double>::infinity();
};

/** Unweighted BFS distances (edge count). */
ShortestPaths bfs(const Graph &g, int source);

/**
 * Dijkstra core, templated on the edge pricing so hot callers pay no
 * type-erased call per relaxation.
 *
 * @param weight called as weight(u, i, e) for the i-th entry e of
 *        g.neighbors(u); returns the edge's cost, which must be
 *        non-negative (kInf = impassable). It is not checked here:
 *        callers validate weights where they are produced.
 *
 * Neighbours are relaxed in neighbors() order and ties leave the
 * queue in (distance, vertex) order, so two callers pricing the same
 * edges identically get identical dist and parent arrays.
 */
template <typename Weight>
ShortestPaths
dijkstraWith(const Graph &g, int source, const Weight &weight)
{
    const int n = g.numVertices();
    QPANIC_IF(source < 0 || source >= n, "dijkstra: bad source ", source);
    ShortestPaths sp;
    sp.dist.assign(n, ShortestPaths::kInf);
    sp.parent.assign(n, -1);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    sp.dist[source] = 0.0;
    pq.emplace(0.0, source);
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > sp.dist[u])
            continue;
        const std::vector<GraphEdge> &adj = g.neighbors(u);
        for (std::size_t i = 0; i < adj.size(); ++i) {
            const double nd = d + weight(u, i, adj[i]);
            if (nd < sp.dist[adj[i].to]) {
                sp.dist[adj[i].to] = nd;
                sp.parent[adj[i].to] = u;
                pq.emplace(nd, adj[i].to);
            }
        }
    }
    return sp;
}

/**
 * Dijkstra with non-negative edge weights (panics on a negative one).
 *
 * @param weight_override optional callable (u, v, default_w) -> cost;
 *        lets callers price edges dynamically while reusing one
 *        topology graph. Must be symmetric.
 */
ShortestPaths dijkstra(
    const Graph &g, int source,
    const std::function<double(int, int, double)> &weight_override = {});

/** Connected component id per vertex (ids are dense, start at 0). */
std::vector<int> connectedComponents(const Graph &g);

/**
 * Shortest cycle passing through @p v, as an ordered vertex list
 * (v first, no repeated endpoint). Empty if v lies on no cycle.
 *
 * Used by the Ring-Based strategy (paper section 5.3) which compresses
 * qubits within small interaction cycles. Runs one BFS from v and closes
 * the cycle at the first non-tree edge joining two different root
 * branches.
 */
std::vector<int> shortestCycleThrough(const Graph &g, int v);

/** Girth-style helper: length of shortest cycle through each vertex
 *  (0 if the vertex is on no cycle). */
std::vector<int> cycleLengthPerVertex(const Graph &g);

} // namespace qompress

#endif // QOMPRESS_GRAPH_ALGORITHMS_HH
