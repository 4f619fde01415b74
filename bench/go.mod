module microlink/bench

go 1.22

require microlink v0.0.0

replace microlink => ../
