// One trained model per registered mining service, over the datagen
// warehouse: the CREATE, INSERT and prediction statements tests run for
// every service (the execution guards, the case scorers).

#ifndef DMX_TESTS_SERVICE_CASES_H_
#define DMX_TESTS_SERVICE_CASES_H_

namespace dmx::testutil {

struct ServiceCase {
  const char* name;     ///< registered service name the model trains USING
  const char* create;   ///< CREATE MINING MODEL [P] ... USING <name>
  const char* insert;   ///< training statement
  const char* query;    ///< prediction statement
};

constexpr const char* kInsertFlat =
    "INSERT INTO [P] SELECT [Customer ID], [Gender], [Age], [Income], "
    "[Customer Loyalty] FROM Customers";

constexpr const char* kInsertBasket = R"(
  INSERT INTO [P]
  SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
  APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
          RELATE [Customer ID] TO [CustID]) AS [Product Purchases])";

constexpr const char* kInsertSequence = R"(
  INSERT INTO [P]
  SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
  APPEND ({SELECT [CustID], [Product Name], [Purchase Time] FROM Sales
           ORDER BY [CustID]}
          RELATE [Customer ID] TO [CustID]) AS [Product Purchases])";

constexpr const char* kQueryAge = R"(
  SELECT t.[Customer ID], Predict([Age]) AS P0
  FROM [P] NATURAL PREDICTION JOIN
    (SELECT [Customer ID], [Gender], [Income], [Customer Loyalty]
     FROM Customers) AS t)";

constexpr const char* kQueryLoyalty = R"(
  SELECT t.[Customer ID], Predict([Customer Loyalty]) AS P0
  FROM [P] NATURAL PREDICTION JOIN
    (SELECT [Customer ID], [Age], [Income] FROM Customers) AS t)";

constexpr const char* kQueryBasket = R"(
  SELECT FLATTENED t.[Customer ID], Predict([Product Purchases], 3) AS R
  FROM [P] NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

constexpr const char* kQuerySequence = R"(
  SELECT FLATTENED t.[Customer ID], Predict([Product Purchases], 3) AS R
  FROM [P] NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name], [Purchase Time] FROM Sales
              ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

// All seven registered service names (six services + the paper's
// Decision_Trees_101 alias) — enforced against the registry below.
constexpr ServiceCase kServices[] = {
    {"Decision_Trees",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Gender] TEXT DISCRETE,
          [Income] DOUBLE CONTINUOUS,
          [Customer Loyalty] LONG DISCRETE,
          [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT
        ) USING Decision_Trees(MINIMUM_SUPPORT = 5.0))",
     kInsertFlat, kQueryAge},
    {"Decision_Trees_101",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Gender] TEXT DISCRETE,
          [Income] DOUBLE CONTINUOUS,
          [Customer Loyalty] LONG DISCRETE,
          [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT
        ) USING Decision_Trees_101(MINIMUM_SUPPORT = 5.0))",
     kInsertFlat, kQueryAge},
    {"Naive_Bayes",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Gender] TEXT DISCRETE,
          [Income] DOUBLE DISCRETIZED(EQUAL_RANGES, 5),
          [Customer Loyalty] LONG DISCRETE,
          [Age] DOUBLE DISCRETIZED(EQUAL_RANGES, 5) PREDICT
        ) USING Naive_Bayes)",
     kInsertFlat, kQueryAge},
    {"Clustering",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Age] DOUBLE CONTINUOUS,
          [Income] DOUBLE CONTINUOUS,
          [Customer Loyalty] LONG DISCRETE PREDICT
        ) USING Clustering(CLUSTER_COUNT = 3, SEED = 11))",
     kInsertFlat, kQueryLoyalty},
    {"Association_Rules",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
        ) USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                                  MINIMUM_PROBABILITY = 0.3))",
     kInsertBasket, kQueryBasket},
    {"Linear_Regression",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Gender] TEXT DISCRETE,
          [Customer Loyalty] LONG ORDERED,
          [Income] DOUBLE CONTINUOUS,
          [Age] DOUBLE CONTINUOUS PREDICT
        ) USING Linear_Regression)",
     kInsertFlat, kQueryAge},
    {"Sequence_Analysis",
     R"(CREATE MINING MODEL [P] (
          [Customer ID] LONG KEY,
          [Product Purchases] TABLE(
            [Product Name] TEXT KEY,
            [Purchase Time] DOUBLE SEQUENCE_TIME) PREDICT
        ) USING Sequence_Analysis)",
     kInsertSequence, kQuerySequence},
};

}  // namespace dmx::testutil

#endif  // DMX_TESTS_SERVICE_CASES_H_
