/**
 * @file
 * Reproduces paper Table 6: the number of cycles between the first two
 * consecutive calls to each outlined hot loop, bucketed at 150 and 300
 * cycles. The paper uses this to argue a hardware translator has
 * hundreds of cycles to finish before the microcode is first needed —
 * only the MPEG2 codecs call their tiny block loops back-to-back.
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/paper_data.hh"

using namespace liquid;
using namespace liquid::bench;

int
main()
{
    std::cout << "=== Table 6: cycles between first two consecutive "
                 "calls to outlined hot loops ===\n\n";

    Table t({{"benchmark", -14}, {"<150", 6}, {"<300", 6}, {">300", 6},
             {"mean", 10}, {"paper<300", 11}, {"paper mean", 12}});
    t.header(std::cout);

    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized);
        // Width-8 Liquid system, as in the paper's evaluation.
        const auto out =
            lab::runOnce(build, SystemConfig::make(ExecMode::Liquid, 8));

        unsigned lt150 = 0;
        unsigned lt300 = 0;
        unsigned gt300 = 0;
        double sum = 0;
        unsigned n = 0;
        for (const Addr entry : build.kernelEntries) {
            auto it = out.callLog.find(entry);
            if (it == out.callLog.end() || it->second.size() < 2)
                continue;
            const Cycles gap = it->second[1] - it->second[0];
            sum += static_cast<double>(gap);
            ++n;
            if (gap < 150)
                ++lt150;
            else if (gap < 300)
                ++lt300;
            else
                ++gt300;
        }
        const auto &paper = paperTable6.at(wl->name());
        t.row(std::cout, wl->name(), lt150, lt300, gt300,
              n ? fmt(sum / n, 0) : "-", paper.lt150 + paper.lt300,
              fmt(paper.mean, 0));
    }

    std::cout << "\nShape check: only the MPEG2 codecs should show "
                 "sub-300-cycle gaps; 179.art should show by far the "
                 "largest mean (cache-miss-bound first call).\n";
    return 0;
}
