// TPC-H dbgen-lite: generates the lineitem, orders, customer and nation
// relations (the columns needed by Q1, Q3, Q10 and Q12) with dbgen-faithful
// distributions, plus hand-planned SPJA blocks for the four queries the
// paper evaluates (Section 6.2) and the Q1a/Q1b/Q1c drill-down variants
// (Section 6.4, Appendix C).
//
// Dates are int64 yyyymmdd. The engine is hash-based, so ORDER BY clauses
// are omitted, exactly as in the paper.
#ifndef SMOKE_WORKLOADS_TPCH_H_
#define SMOKE_WORKLOADS_TPCH_H_

#include <cstdint>

#include "engine/spja.h"
#include "query/trace_builder.h"
#include "storage/table.h"

namespace smoke {
namespace tpch {

// Column indexes.
enum LineitemCol : int {
  kLOrderkey = 0,
  kLQuantity,
  kLExtendedprice,
  kLDiscount,
  kLTax,
  kLReturnflag,
  kLLinestatus,
  kLShipdate,
  kLCommitdate,
  kLReceiptdate,
  kLShipinstruct,
  kLShipmode,
};

enum OrdersCol : int {
  kOOrderkey = 0,
  kOCustkey,
  kOOrderdate,
  kOOrderpriority,
  kOShippriority,
};

enum CustomerCol : int {
  kCCustkey = 0,
  kCName,
  kCAddress,
  kCNationkey,
  kCPhone,
  kCAcctbal,
  kCMktsegment,
};

enum NationCol : int {
  kNNationkey = 0,
  kNName,
};

/// The generated database. Row counts at scale factor 1: customer 150k,
/// orders 1.5M, lineitem ~6M, nation 25.
struct Database {
  Table lineitem;
  Table orders;
  Table customer;
  Table nation;
};

/// Generates the database at `scale_factor` (fractions supported; the
/// benches default to 0.1 so the suite runs in minutes on a laptop).
Database Generate(double scale_factor, uint64_t seed = 2018);

/// TPC-H Q1 over `db` (pricing summary report; selection on l_shipdate,
/// group by returnflag/linestatus, 8 aggregates).
SPJAQuery MakeQ1(const Database& db);

/// TPC-H Q3 (shipping priority): customer ⋈ orders ⋈ lineitem.
SPJAQuery MakeQ3(const Database& db);

/// TPC-H Q10 (returned items): customer ⋈ orders ⋈ lineitem ⋈ nation.
SPJAQuery MakeQ10(const Database& db);

/// TPC-H Q12 (shipping modes): orders ⋈ lineitem with CASE aggregates over
/// o_orderpriority.
SPJAQuery MakeQ12(const Database& db);

/// Q1a (Section 6.4): drill into one Q1 group by (year, month) of
/// l_shipdate, same aggregates.
ConsumingSpec MakeQ1a(const Database& db);

/// Q1b: Q1a plus two parameterized predicates l_shipmode = :p1 AND
/// l_shipinstruct = :p2 (text attributes, to exercise push-down overheads).
ConsumingSpec MakeQ1b(const Database& db, const std::string& shipmode,
                      const std::string& shipinstruct);

/// Q1c: Q1b plus l_tax added to the GROUP BY.
ConsumingSpec MakeQ1c(const Database& db, const std::string& shipmode,
                      const std::string& shipinstruct);

/// The seven shipmode values / four shipinstruct values of dbgen.
const std::vector<std::string>& ShipModes();
const std::vector<std::string>& ShipInstructs();

}  // namespace tpch
}  // namespace smoke

#endif  // SMOKE_WORKLOADS_TPCH_H_
