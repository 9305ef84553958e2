module oak/bench

go 1.22

require oak v0.0.0

replace oak => ../
