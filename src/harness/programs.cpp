#include "harness/programs.h"

#include <sstream>

namespace rapwam {

namespace {

/// Deterministic LCG so every run sees identical workloads.
struct Lcg {
  u64 s;
  explicit Lcg(u32 seed) : s(seed * 2654435761u + 1) {}
  u32 next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<u32>(s >> 33);
  }
};

const char* kDerivSrc = R"PL(
% Symbolic differentiation with AND-parallel recursion on subterms.
d(U+V,X,DU+DV)              :- !, (d(U,X,DU) & d(V,X,DV)).
d(U-V,X,DU-DV)              :- !, (d(U,X,DU) & d(V,X,DV)).
d(U*V,X,DU*V+U*DV)          :- !, (d(U,X,DU) & d(V,X,DV)).
d(U/V,X,(DU*V-U*DV)/(V*V))  :- !, (d(U,X,DU) & d(V,X,DV)).
d(-U,X,-DU)                 :- !, d(U,X,DU).
d(exp(U),X,exp(U)*DU)       :- !, d(U,X,DU).
d(log(U),X,DU/U)            :- !, d(U,X,DU).
d(X,X,1) :- !.
d(C,_,0) :- atomic(C).
)PL";

const char* kTakSrc = R"PL(
% Takeuchi's function; the three recursive calls are independent
% (inputs ground, outputs distinct fresh variables).
tak(X,Y,Z,A) :- X =< Y, !, A = Z.
tak(X,Y,Z,A) :-
    X1 is X - 1, Y1 is Y - 1, Z1 is Z - 1,
    (tak(X1,Y,Z,A1) & tak(Y1,Z,X,A2) & tak(Z1,X,Y,A3)),
    tak(A1,A2,A3,A).
)PL";

const char* kQsortSrc = R"PL(
% Quicksort with difference lists; the two recursive calls share only
% the open tail R1, which at most one of them binds (non-strict
% independence), so they run in parallel.
qsort(L,R) :- qs(L,R,[]).
qs([],R,R).
qs([X|L],R,R0) :-
    part(L,X,L1,L2),
    (qs(L1,R,[X|R1]) & qs(L2,R1,R0)).
part([],_,[],[]).
part([E|R],C,[E|L1],L2) :- E =< C, !, part(R,C,L1,L2).
part([E|R],C,L1,[E|L2]) :- part(R,C,L1,L2).
)PL";

const char* kMatrixSrc = R"PL(
% Naive matrix multiplication, rows in parallel. The second operand is
% supplied already transposed (list of columns).
mmul([],_,[]).
mmul([R|Rs],Cs,[X|Xs]) :- (rowmul(R,Cs,X) & mmul(Rs,Cs,Xs)).
rowmul(_,[],[]).
rowmul(R,[C|Cs],[X|Xs]) :- dot(R,C,0,X), rowmul(R,Cs,Xs).
dot([],[],A,A).
dot([X|Xs],[Y|Ys],A0,A) :- A1 is A0 + X*Y, dot(Xs,Ys,A1,A).
)PL";

const char* kQueensSrc = R"PL(
% All-solutions N-queens (heavy backtracking; sequential).
queens(N,Qs) :- range(1,N,Ns), place(Ns,[],Qs).
place([],Qs,Qs).
place(Un,Safe,Qs) :-
    selectq(Un,Un1,Q),
    \+ attack(Q,Safe),
    place(Un1,[Q|Safe],Qs).
attack(X,Xs) :- att(X,1,Xs).
att(X,N,[Y|_]) :- X =:= Y + N.
att(X,N,[Y|_]) :- X =:= Y - N.
att(X,N,[_|Ys]) :- N1 is N + 1, att(X,N1,Ys).
selectq([X|Xs],Xs,X).
selectq([Y|Ys],[Y|Zs],X) :- selectq(Ys,Zs,X).
range(N,N,[N]) :- !.
range(M,N,[M|Ns]) :- M < N, M1 is M + 1, range(M1,N,Ns).
)PL";

const char* kNrevSrc = R"PL(
% Naive reverse (sequential list workhorse).
nrev([],[]).
nrev([X|Xs],R) :- nrev(Xs,R1), app(R1,[X],R).
app([],L,L).
app([X|Xs],L,[X|Ys]) :- app(Xs,L,Ys).
)PL";

std::string strip_cge_source(std::string src) { return src; }

}  // namespace

std::string gen_int_list(int n, u32 seed) {
  Lcg r(seed);
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < n; ++i) {
    if (i) os << ",";
    os << (r.next() % 10000);
  }
  os << "]";
  return os.str();
}

std::string gen_matrix_text(int rows, int cols, u32 seed) {
  Lcg r(seed);
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rows; ++i) {
    if (i) os << ",";
    os << "[";
    for (int j = 0; j < cols; ++j) {
      if (j) os << ",";
      os << (r.next() % 100);
    }
    os << "]";
  }
  os << "]";
  return os.str();
}

namespace {
void gen_expr(Lcg& r, int nodes, std::ostringstream& os) {
  if (nodes <= 0) {
    // Leaf: the variable x (differentiation target) or a constant.
    if (r.next() % 3 == 0) os << (r.next() % 9 + 1);
    else os << "x";
    return;
  }
  static const char* ops[] = {"+", "-", "*", "+", "*"};
  const char* op = ops[r.next() % 5];
  int left = (nodes - 1) / 2;
  int right = nodes - 1 - left;
  os << "(";
  gen_expr(r, left, os);
  os << op;
  gen_expr(r, right, os);
  os << ")";
}
}  // namespace

std::string gen_deriv_expr(int nodes, u32 seed) {
  Lcg r(seed);
  std::ostringstream os;
  gen_expr(r, nodes, os);
  return os.str();
}

BenchScale scale_from_name(const std::string& name) {
  if (name == "small") return BenchScale::Small;
  if (name == "paper") return BenchScale::Paper;
  fail("unknown scale \"" + name + "\" (expected small, paper)");
}

std::vector<std::string> small_bench_names() {
  return {"deriv", "tak", "qsort", "matrix"};
}

BenchProgram bench_program(const std::string& name, BenchScale scale) {
  bool paper = scale == BenchScale::Paper;
  if (name == "deriv") {
    int nodes = paper ? 950 : 15;
    return {"deriv", kDerivSrc, "d(" + gen_deriv_expr(nodes, 42) + ",x,D)"};
  }
  if (name == "tak") {
    return {"tak", kTakSrc, paper ? "tak(12,7,3,A)" : "tak(8,5,2,A)"};
  }
  if (name == "qsort") {
    int n = paper ? 900 : 30;
    return {"qsort", kQsortSrc, "qsort(" + gen_int_list(n, 7) + ",R)"};
  }
  if (name == "matrix") {
    int n = paper ? 16 : 4;
    return {"matrix", kMatrixSrc,
            "mmul(" + gen_matrix_text(n, n, 3) + "," + gen_matrix_text(n, n, 5) + ",R)"};
  }
  fail("unknown benchmark: " + name);
}

std::vector<BenchProgram> large_bench_suite(BenchScale scale) {
  bool paper = scale == BenchScale::Paper;
  std::vector<BenchProgram> out;
  out.push_back({"queens", kQueensSrc, paper ? "queens(8,Q)" : "queens(5,Q)"});
  out.push_back({"nrev", kNrevSrc,
                 "nrev(" + gen_int_list(paper ? 220 : 25, 11) + ",R)"});
  out.push_back({"qsort_big", strip_cge_source(kQsortSrc),
                 "qsort(" + gen_int_list(paper ? 1200 : 40, 13) + ",R)"});
  out.push_back({"deriv_big", kDerivSrc,
                 "d(" + gen_deriv_expr(paper ? 320 : 20, 17) + ",x,D)"});
  return out;
}

}  // namespace rapwam
