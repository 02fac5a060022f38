/**
 * @file
 * Fig. 9-style traffic study on a small scale: map one Transformer block
 * onto the 72 TOPs G-Arch with the Tangram-style heuristic and with the
 * SA-explored scheme, and dump both per-link traffic maps as CSV for
 * plotting. Shows how to reach the analyzer's per-link data through the
 * public MappingEngine::analyzeGroup API.
 */

#include <cstdio>

#include "src/common/artifacts.hh"
#include "src/arch/presets.hh"
#include "src/common/csv.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/engine.hh"

using namespace gemini;

namespace {

void
dump(const std::string &path, mapping::MappingEngine &engine,
     const mapping::MappingResult &result)
{
    noc::TrafficMap total;
    for (std::size_t g = 0; g < result.mapping.groups.size(); ++g) {
        const mapping::GroupAnalysis a =
            engine.analyzeGroup(result.mapping, g);
        total.addFrom(a.traffic, static_cast<double>(a.numUnits));
    }
    CsvTable csv({"from", "to", "bytes", "kind"});
    const noc::InterconnectModel &noc = engine.noc();
    double d2d = 0.0, onchip = 0.0;
    for (const auto &[key, bytes] : total.links()) {
        const noc::NodeId a = noc::linkFrom(key);
        const noc::NodeId b = noc::linkTo(key);
        const bool is_d2d =
            noc.linkKind(a, b) == noc::LinkKind::D2D;
        (is_d2d ? d2d : onchip) += bytes;
        csv.addRow(noc.nodeLabel(a), noc.nodeLabel(b), bytes,
                   is_d2d ? "d2d" : "onchip");
    }
    csv.writeFile(path);
    std::printf("%-32s on-chip %.2f MB, d2d %.2f MB -> %s\n",
                path.c_str(), onchip / 1e6, d2d / 1e6, path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_dir = common::artifactDir(argc, argv);
    const dnn::Graph model = dnn::zoo::tinyTransformer(64, 256, 8, 1);
    const arch::ArchConfig arch = arch::gArch72();

    mapping::MappingOptions heuristic;
    heuristic.batch = 16;
    heuristic.runSa = false;
    mapping::MappingEngine t_engine(model, arch, heuristic);
    const mapping::MappingResult t_map = t_engine.run();
    dump(common::artifactPath(out_dir, "heatmap_tangram.csv"),
         t_engine, t_map);

    mapping::MappingOptions explored = heuristic;
    explored.runSa = true;
    explored.sa.iterations = 8000;
    mapping::MappingEngine g_engine(model, arch, explored);
    const mapping::MappingResult g_map = g_engine.run();
    dump(common::artifactPath(out_dir, "heatmap_gemini.csv"),
         g_engine, g_map);

    std::printf("\nT-Map: delay %.3f ms, energy %.4f J (d2d %.4f J)\n",
                t_map.total.delay * 1e3, t_map.total.totalEnergy(),
                t_map.total.d2dEnergy);
    std::printf("G-Map: delay %.3f ms, energy %.4f J (d2d %.4f J)\n",
                g_map.total.delay * 1e3, g_map.total.totalEnergy(),
                g_map.total.d2dEnergy);
    return 0;
}
