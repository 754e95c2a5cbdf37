// pta-fuzz reproducer
// oracle: serve
// seed: 3000080
// cls: serve-unstable
// verdict: pass
// note: campaign seed=3 case=71, shrunk 37->28 loc: an unused parameter of an indirectly called function is stored in its own function's fnresult, so its callers must be in that function's closure or a reload splices a stale pt row

global gd0;

global gdead;

global gf0 = &f0;

global gf1 = &f0;

func f0(a, b) {
  return;
}

func main() {
  var m0, m1, m2;
  m0 = malloc();
  m1 = malloc();
  m2 = &m0;
  gd0 = m2;
  m0 = (*gf1)(m1, m2);
  gd0 = m0;
  if (m2 == m2) {
    m1 = m1;
  } else {
    if (m0 == m2) {
      m1 = m1;
    } else {
      if (m0 == m2) {
        m1 = &m1;
      }
    }
  }
  return;
}
