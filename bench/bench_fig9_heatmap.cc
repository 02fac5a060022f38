/**
 * @file
 * Fig. 9 reproduction: NoC/D2D traffic heatmaps of the Tangram-style
 * stripe SPM versus the Gemini SA-explored SPM for a heavy-dependency
 * Transformer segment on the 72 TOPs G-Arch. Prints an ASCII heatmap of
 * per-link bandwidth pressure (D2D volumes doubled for display, exactly
 * as the paper's figure does), dumps both heatmaps as CSV, and reports the
 * paper's two headline statistics: total-hop reduction and D2D-hop
 * reduction (paper: -34.2% total, -74% on D2D links).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "src/common/artifacts.hh"
#include "src/arch/presets.hh"
#include "src/common/csv.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/stripe.hh"

using namespace gemini;

namespace {

/** Collect whole-mapping traffic (bytes per batch unit, summed). */
noc::TrafficMap
collectTraffic(mapping::MappingEngine &engine,
               const mapping::MappingResult &result)
{
    noc::TrafficMap total;
    for (std::size_t g = 0; g < result.mapping.groups.size(); ++g) {
        const mapping::GroupAnalysis a =
            engine.analyzeGroup(result.mapping, g);
        total.addFrom(a.traffic, static_cast<double>(a.numUnits));
    }
    return total;
}

/**
 * Hop-weighted totals. The paper's "-74% on the intermediate D2D links"
 * refers to the core-to-core chiplet-boundary links; the IO-chiplet attach
 * links carry the DRAM traffic and are reported separately (their load is
 * set by the FD attributes, not by core placement).
 */
void
stats(const noc::InterconnectModel &noc, const noc::TrafficMap &map,
      double &total, double &d2d_mid, double &d2d_io, double &max_link_s)
{
    total = 0.0;
    d2d_mid = 0.0;
    d2d_io = 0.0;
    max_link_s = 0.0;
    for (const auto &[key, bytes] : map.links()) {
        const noc::NodeId a = noc::linkFrom(key);
        const noc::NodeId b = noc::linkTo(key);
        total += bytes;
        if (noc.linkKind(a, b) == noc::LinkKind::D2D) {
            if (noc.isDramNode(a) || noc.isDramNode(b))
                d2d_io += bytes;
            else
                d2d_mid += bytes;
        }
        max_link_s =
            std::max(max_link_s, bytes / noc.linkBandwidthBps(a, b));
    }
}

char
shade(double v, double vmax)
{
    static const char ramp[] = " .:-=+*#%@";
    if (vmax <= 0.0)
        return ' ';
    const int idx = std::min(9, static_cast<int>(v / vmax * 9.999));
    return ramp[idx];
}

/** ASCII heatmap: horizontal then vertical link pressure per cell edge. */
void
printAscii(const noc::InterconnectModel &noc, const noc::TrafficMap &map)
{
    const auto &cfg = noc.config();
    double vmax = 0.0;
    auto pressure = [&](noc::NodeId a, noc::NodeId b) {
        const double mult =
            noc.linkKind(a, b) == noc::LinkKind::D2D ? 2.0 : 1.0;
        return (map.at(a, b) + map.at(b, a)) * mult;
    };
    for (int y = 0; y < cfg.yCores; ++y) {
        for (int x = 0; x < cfg.xCores; ++x) {
            if (x + 1 < cfg.xCores)
                vmax = std::max(vmax, pressure(cfg.coreAt(x, y),
                                               cfg.coreAt(x + 1, y)));
            if (y + 1 < cfg.yCores)
                vmax = std::max(vmax, pressure(cfg.coreAt(x, y),
                                               cfg.coreAt(x, y + 1)));
        }
    }
    for (int y = 0; y < cfg.yCores; ++y) {
        std::string row_nodes, row_vert;
        for (int x = 0; x < cfg.xCores; ++x) {
            row_nodes += "o";
            if (x + 1 < cfg.xCores) {
                const double p =
                    pressure(cfg.coreAt(x, y), cfg.coreAt(x + 1, y));
                const bool d2d = cfg.crossesChiplet(cfg.coreAt(x, y),
                                                    cfg.coreAt(x + 1, y));
                row_nodes += d2d ? '|' : '-';
                row_nodes += shade(p, vmax);
                row_nodes += d2d ? '|' : '-';
            }
            if (y + 1 < cfg.yCores) {
                const double p =
                    pressure(cfg.coreAt(x, y), cfg.coreAt(x, y + 1));
                row_vert += shade(p, vmax);
                row_vert += "   ";
            }
        }
        std::printf("    %s\n", row_nodes.c_str());
        if (y + 1 < cfg.yCores)
            std::printf("    %s\n", row_vert.c_str());
    }
    std::printf("    (shade = link pressure, '|x|' marks D2D-crossing "
                "edges, D2D volume doubled as in the paper)\n");
}

void
dumpCsv(const noc::InterconnectModel &noc, const noc::TrafficMap &map,
        const std::string &path)
{
    CsvTable csv({"from", "to", "bytes", "kind"});
    for (const auto &[key, bytes] : map.links()) {
        const noc::NodeId a = noc::linkFrom(key);
        const noc::NodeId b = noc::linkTo(key);
        csv.addRow(noc.nodeLabel(a), noc.nodeLabel(b), bytes,
                   noc.linkKind(a, b) == noc::LinkKind::D2D ? "d2d"
                                                            : "onchip");
    }
    csv.writeFile(path);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_dir = common::artifactDir(argc, argv);
    benchutil::printHeader(
        "Fig. 9 — SPM traffic heatmap: Tangram vs Gemini on 72 TOPs "
        "G-Arch",
        "Fig. 9 / Sec. VII-C (-34.2% total hops, -74% D2D hops)");

    // The paper maps a heavy 3-layer Transformer dependency chain whose
    // attention-score flows dwarf the other dependencies (7.7e7 vs ~1e6
    // bytes in their Fig. 9 inset); a full-length (seq 512) block has the
    // same extreme contrast: the QK -> softmax -> AV chain moves 8x more
    // data than the projection layers.
    const bool smoke = benchutil::effortLevel() == 0;
    dnn::Graph model = dnn::zoo::tinyTransformer(smoke ? 32 : 512,
                                                 smoke ? 64 : 512,
                                                 smoke ? 4 : 8, 1);
    const arch::ArchConfig garch = arch::gArch72();

    // The rectangular heuristic (our T-Map default, used for the DP and
    // the SA init) and the paper's literal 1-D stripe T-Map baseline.
    mapping::MappingOptions t_opts =
        benchutil::mappingOptions(smoke ? 4 : 64, false);
    mapping::MappingEngine t_engine(model, garch, t_opts);
    const mapping::MappingResult rect_map = t_engine.run();

    mapping::LpMapping naive = rect_map.mapping;
    for (auto &grp : naive.groups)
        grp = mapping::naiveStripeMapping(model, garch, grp.layers,
                                          grp.batchUnit);
    const mapping::MappingResult t_map = t_engine.evaluateMapping(naive);
    const noc::TrafficMap t_traffic = collectTraffic(t_engine, t_map);

    mapping::MappingOptions g_opts =
        benchutil::mappingOptions(smoke ? 4 : 64, true);
    g_opts.sa.iterations = benchutil::scaled(500, 40000, 160000);
    mapping::MappingEngine g_engine(model, garch, g_opts);
    const mapping::MappingResult g_map = g_engine.run();
    const noc::TrafficMap g_traffic = collectTraffic(g_engine, g_map);

    std::printf("\nTangram SPM (1-D stripe heuristic, the paper's "
                "baseline):\n");
    printAscii(t_engine.noc(), t_traffic);
    std::printf("\nGemini SPM (SA-explored):\n");
    printAscii(g_engine.noc(), g_traffic);

    dumpCsv(t_engine.noc(), t_traffic,
            common::artifactPath(out_dir, "fig9_tangram_heatmap.csv"));
    dumpCsv(g_engine.noc(), g_traffic,
            common::artifactPath(out_dir, "fig9_gemini_heatmap.csv"));

    double t_total, t_mid, t_io, t_peak;
    double g_total, g_mid, g_io, g_peak;
    stats(t_engine.noc(), t_traffic, t_total, t_mid, t_io, t_peak);
    stats(g_engine.noc(), g_traffic, g_total, g_mid, g_io, g_peak);

    const noc::TrafficMap r_traffic = collectTraffic(t_engine, rect_map);
    double r_total, r_mid, r_io, r_peak;
    stats(t_engine.noc(), r_traffic, r_total, r_mid, r_io, r_peak);

    benchutil::ConsoleTable t({"scheme", "hop-bytes", "mid-D2D bytes",
                               "io-D2D bytes", "peak link(ms)",
                               "delay(ms)", "energy(J)"});
    t.addRow("T-Map (1-D stripe)", t_total, t_mid, t_io, t_peak * 1e3,
             t_map.total.delay * 1e3, t_map.total.totalEnergy());
    t.addRow("rect heuristic", r_total, r_mid, r_io, r_peak * 1e3,
             rect_map.total.delay * 1e3, rect_map.total.totalEnergy());
    t.addRow("G-Map", g_total, g_mid, g_io, g_peak * 1e3,
             g_map.total.delay * 1e3, g_map.total.totalEnergy());
    t.print();
    std::printf("\nintermediate-D2D reduction %.1f%% (paper: 74%%), "
                "bottleneck-link pressure reduction %.1f%%, total "
                "hop-byte change %+.1f%% (paper: -34.2%%)\n",
                (1.0 - g_mid / t_mid) * 100.0,
                (1.0 - g_peak / t_peak) * 100.0,
                (g_total / t_total - 1.0) * 100.0);
    std::printf("heatmap CSVs: fig9_tangram_heatmap.csv, "
                "fig9_gemini_heatmap.csv\n");
    return 0;
}
