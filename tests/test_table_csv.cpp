#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <locale>
#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/table.h"

namespace mlqr {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("Title");
  t.set_header({"A", "B"});
  t.add_row({"1", "22"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t;
  t.set_header({"A", "B", "C"});
  t.add_row({"only"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.render(os));
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(Csv, WritesAndEscapes) {
  const std::string path = "test_csv_tmp.csv";
  {
    CsvWriter w(path);
    w.write_row({"a", "b,c", "d\"e"});
    w.write_row(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,2");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zzz/file.csv"), Error);
}

TEST(Csv, NumericRowsAreLocaleIndependent) {
  // Under a comma-decimal global locale (de_DE-style numpunct) the default
  // stream formatting turns 1.5 into "1,5" — which a CSV reader parses as
  // two cells. The writer must pin the classic "C" locale. Injecting the
  // facet directly keeps the test independent of which OS locales exist.
  struct CommaDecimal : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimal));
  const std::string path = "test_csv_locale_tmp.csv";
  {
    CsvWriter w(path);
    w.write_row(std::vector<double>{1.5, 1234567.25});
  }
  std::locale::global(saved);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,1234567.25");  // No comma decimals, no grouping.
  std::remove(path.c_str());
}

TEST(Csv, NumericRowsUnderEnvironmentLocale) {
  // Adopt the process environment's locale as the global C++ locale — the
  // CI locale leg runs the suite with LC_ALL=de_DE.UTF-8, so there this
  // exercises a real comma-decimal locale end to end (under the default
  // "C"/POSIX environment it degenerates to the classic locale and still
  // must pass).
  std::locale env_locale;
  try {
    env_locale = std::locale("");
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "environment locale not constructible";
  }
  const std::locale saved = std::locale::global(env_locale);
  const std::string path = "test_csv_env_locale_tmp.csv";
  {
    CsvWriter w(path);
    w.write_row(std::vector<double>{1.5, 1234567.25});
  }
  std::locale::global(saved);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,1234567.25");
  std::remove(path.c_str());
}

TEST(Csv, NumericRowsRoundTripAtFullPrecision) {
  // Default stream precision (~6 significant digits) silently truncated
  // bench results; max_digits10 formatting must parse back bit-exact.
  const std::string path = "test_csv_precision_tmp.csv";
  const std::vector<double> values{0.1 + 0.2, 1.0 / 3.0, 123456.789012345,
                                   6.02214076e23, -2.5e-9};
  {
    CsvWriter w(path);
    w.write_row(values);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, line.find(',')), "0.30000000000000004");
  std::stringstream cells(line);
  for (double want : values) {
    std::string cell;
    ASSERT_TRUE(std::getline(cells, cell, ','));
    EXPECT_EQ(std::stod(cell), want) << cell;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlqr
