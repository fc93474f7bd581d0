package notices

var collect = (*EpochExchange).CollectOthersInto
