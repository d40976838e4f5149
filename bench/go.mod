module seqlog/bench

go 1.24

require seqlog v0.0.0

replace seqlog => ../
