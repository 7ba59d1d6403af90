module klotski/bench

go 1.22

require klotski v0.0.0

replace klotski => ../
