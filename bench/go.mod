module casched/bench

go 1.22

require casched v0.0.0

replace casched => ../
