/**
 * @file
 * Physical device topologies (paper section 6.1): square grid sized to
 * the circuit, the IBM 65-qubit heavy-hex lattice, and a ring.
 */

#ifndef QOMPRESS_ARCH_TOPOLOGY_HH
#define QOMPRESS_ARCH_TOPOLOGY_HH

#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "graph/graph.hh"

namespace qompress {

/**
 * A device coupling graph over ququart-capable physical units.
 *
 * Every unit can hold one logical qubit (bare) or two (encoded as a
 * ququart); the topology itself is radix-agnostic.
 */
class Topology
{
  public:
    /** Unit cap for devices sized by untrusted input: coupling-list
     *  and calibration text, heavyHex parameters, and the tools'
     *  --units/--max-units flags. */
    static constexpr int kMaxUnits = 16384;

    /** Wrap an explicit coupling graph. */
    Topology(Graph coupling, std::string name);

    /** Number of physical units. */
    int numUnits() const { return coupling_.numVertices(); }

    /** Number of couplings. */
    int numEdges() const { return coupling_.numEdges(); }

    const std::string &name() const { return name_; }

    /** The unit-level coupling graph. */
    const Graph &graph() const { return coupling_; }

    /** True iff units u and v are coupled. */
    bool adjacent(UnitId u, UnitId v) const
    {
        return coupling_.hasEdge(u, v);
    }

    /** Unit with minimum eccentricity (BFS); mapping seeds here. */
    UnitId centerUnit() const;

    /** @name Generators @{ */

    /**
     * Rectangular mesh with ceil(sqrt(n)) columns and enough rows for
     * at least @p min_units units (paper's per-circuit sizing).
     */
    static Topology grid(int min_units);

    /** Explicit rows x cols mesh. */
    static Topology gridExplicit(int rows, int cols);

    /**
     * The IBM 65-qubit heavy-hex lattice (ibmq_manhattan/brooklyn
     * generation, the paper's "Ithaca" stand-in): five qubit rows of
     * 10/11/11/11/10 joined by 12 bridge qubits; 65 units, 72 edges.
     */
    static Topology heavyHex65() { return heavyHex(5, 11); }

    /**
     * The general heavy-hex family: @p rows qubit rows (first and last
     * one unit shorter) of length @p row_len joined by bridge units.
     * Valid parameters are rows odd >= 3 and row_len >= 7 with
     * row_len % 4 == 3 (the hexagonal tiling constraint); anything
     * else is a FatalError. heavyHex(5, 11) is the IBM 65-qubit
     * device (same units, numbering, and edges); heavyHex(7, 15) is
     * the 127-unit IBM Eagle shape; heavyHex(3, 7) a 23-unit Falcon-
     * class lattice.
     */
    static Topology heavyHex(int rows, int row_len);

    /** The IBM 27-qubit Falcon coupling map (ibmq_mumbai/montreal
     *  generation): 27 units, 28 edges. */
    static Topology falcon27();

    /**
     * A device of kind "grid", "heavyhex", "ring" or "line" for
     * @p units units: grid(units), the 65-unit heavy-hex lattice
     * whatever @p units, ring(max(units, 3)), line(max(units, 2)).
     * Named devices live in the DeviceRegistry (arch/device.hh).
     * @throws FatalError for an unknown kind, listing the valid ones.
     */
    static Topology sized(const std::string &kind, int units);

    /** Cycle of @p n units. */
    static Topology ring(int n);

    /** Path of @p n units. */
    static Topology line(int n);

    /** Fully connected device (useful in tests). */
    static Topology complete(int n);

    /** Custom device from an explicit coupling list (unit count is
     *  max index + 1 unless @p min_units is larger). */
    static Topology fromEdgeList(
        const std::vector<std::pair<UnitId, UnitId>> &edges,
        std::string name = "custom", int min_units = 0);

    /**
     * Custom device from untrusted coupling-list text: '#' comments
     * and exactly one "u v" coupling per line. Hardened like the QASM
     * parser: checked digit-only integer parsing, unit/edge caps,
     * trailing-token, self-loop, and duplicate-edge rejection, all
     * with line numbers. @p what names the source in errors.
     * @throws FatalError on malformed input.
     */
    static Topology fromText(const std::string &text,
                             const std::string &what);

    /** fromText() over a file's contents, named by its basename.
     *  @throws FatalError on malformed input. */
    static Topology fromFile(const std::string &path);
    /** @} */

  private:
    Graph coupling_;
    std::string name_;
};

} // namespace qompress

#endif // QOMPRESS_ARCH_TOPOLOGY_HH
