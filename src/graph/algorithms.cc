#include "graph/algorithms.hh"

#include <algorithm>
#include <queue>

#include "common/error.hh"

namespace qompress {

std::vector<int>
ShortestPaths::pathTo(int v) const
{
    if (v < 0 || v >= static_cast<int>(dist.size()) ||
        dist[v] == kInf) {
        return {};
    }
    std::vector<int> path;
    for (int cur = v; cur != -1; cur = parent[cur])
        path.push_back(cur);
    std::reverse(path.begin(), path.end());
    return path;
}

ShortestPaths
bfs(const Graph &g, int source)
{
    const int n = g.numVertices();
    QPANIC_IF(source < 0 || source >= n, "bfs: bad source ", source);
    ShortestPaths sp;
    sp.dist.assign(n, ShortestPaths::kInf);
    sp.parent.assign(n, -1);
    std::queue<int> q;
    sp.dist[source] = 0.0;
    q.push(source);
    while (!q.empty()) {
        const int u = q.front();
        q.pop();
        for (const auto &e : g.neighbors(u)) {
            if (sp.dist[e.to] == ShortestPaths::kInf) {
                sp.dist[e.to] = sp.dist[u] + 1.0;
                sp.parent[e.to] = u;
                q.push(e.to);
            }
        }
    }
    return sp;
}

ShortestPaths
dijkstra(const Graph &g, int source,
         const std::function<double(int, int, double)> &weight_override)
{
    return dijkstraWith(
        g, source, [&](int u, std::size_t, const GraphEdge &e) {
            const double w = weight_override
                ? weight_override(u, e.to, e.weight)
                : e.weight;
            QPANIC_IF(w < 0.0, "dijkstra: negative weight on (", u,
                      ", ", e.to, ")");
            return w;
        });
}

std::vector<int>
connectedComponents(const Graph &g)
{
    const int n = g.numVertices();
    std::vector<int> comp(n, -1);
    int next = 0;
    for (int s = 0; s < n; ++s) {
        if (comp[s] != -1)
            continue;
        std::queue<int> q;
        q.push(s);
        comp[s] = next;
        while (!q.empty()) {
            const int u = q.front();
            q.pop();
            for (const auto &e : g.neighbors(u)) {
                if (comp[e.to] == -1) {
                    comp[e.to] = next;
                    q.push(e.to);
                }
            }
        }
        ++next;
    }
    return comp;
}

std::vector<int>
shortestCycleThrough(const Graph &g, int v)
{
    const int n = g.numVertices();
    QPANIC_IF(v < 0 || v >= n, "shortestCycleThrough: bad vertex ", v);

    // BFS from v, recording for each vertex which child branch of v it
    // descends from. A non-tree edge joining two distinct branches closes
    // the shortest cycle through v (paths to different branches share
    // only v).
    auto sp = bfs(g, v);
    std::vector<int> branch(n, -1);
    // Assign branches by walking up parents; memoized.
    std::function<int(int)> branchOf = [&](int x) -> int {
        if (x == v)
            return -1;
        if (branch[x] != -1)
            return branch[x];
        if (sp.parent[x] == v)
            return branch[x] = x;
        return branch[x] = branchOf(sp.parent[x]);
    };

    double best = ShortestPaths::kInf;
    int bestX = -1, bestY = -1;
    for (const auto &e : g.edges()) {
        const int x = e.u, y = e.v;
        if (sp.dist[x] == ShortestPaths::kInf ||
            sp.dist[y] == ShortestPaths::kInf) {
            continue;
        }
        if (x == v || y == v)
            continue; // tree or trivial edges at the root
        if (sp.parent[x] == y || sp.parent[y] == x)
            continue; // BFS tree edge
        if (branchOf(x) == branchOf(y))
            continue; // cycle does not pass through v
        const double len = sp.dist[x] + sp.dist[y] + 1.0;
        if (len < best) {
            best = len;
            bestX = x;
            bestY = y;
        }
    }
    if (bestX == -1)
        return {};

    // Path v..bestX, then bestY..v (excluding the duplicate v).
    std::vector<int> cycle = sp.pathTo(bestX);
    std::vector<int> back = sp.pathTo(bestY);
    for (auto it = back.rbegin(); it != back.rend(); ++it) {
        if (*it == v)
            break;
        cycle.push_back(*it);
    }
    return cycle;
}

std::vector<int>
cycleLengthPerVertex(const Graph &g)
{
    std::vector<int> out(g.numVertices(), 0);
    for (int v = 0; v < g.numVertices(); ++v) {
        const auto cyc = shortestCycleThrough(g, v);
        out[v] = static_cast<int>(cyc.size());
    }
    return out;
}

} // namespace qompress
