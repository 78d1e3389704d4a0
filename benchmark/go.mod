module efactory/benchmark

go 1.22

require efactory v0.0.0

replace efactory => ../
